// Global era/epoch clock shared by the era-based schemes.
//
// EBR's epoch, IBR/HE's era, and Hyaline-S's allocation era are all the
// same object: a padded global 64-bit counter that threads read with
// seq_cst and advance either unconditionally (FAA, one bump every
// `era_freq` allocations) or conditionally (CAS, EBR's all-threads-caught-up
// rule). The era-validated read loop those schemes share lives here too.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr::core {

class era_clock {
 public:
  /// Every successful advance is counted in `ctrs` (and traced) here,
  /// uniformly for all era-based schemes.
  era_clock(std::uint64_t start, domain_counters& ctrs)
      : era_(start), ctrs_(ctrs) {}

  era_clock(const era_clock&) = delete;
  era_clock& operator=(const era_clock&) = delete;

  /// No default order: every call site spells how strong a read it needs
  /// (the relaxed-ordering audit in the README leans on this being
  /// visible at the call site).
  std::uint64_t load(std::memory_order order) const {
    return era_->load(order);
  }

  /// Unconditional advance (IBR/HE/Hyaline-S allocation clock).
  void advance() {
    // seq_cst: the bump is the boundary that separates "allocated in era
    // e" from "retired in era >= e"; scanners compare stamps taken on
    // both sides of it, so it must take part in the single total order
    // with the reservation publications.
    const std::uint64_t e = era_->fetch_add(1, std::memory_order_seq_cst);
    ctrs_.on_era_advance();
    obs::emit(obs::event::era_advance, e + 1);
  }

  /// Conditional advance from a known value (EBR: only the thread that
  /// verified every reservation caught up moves the epoch).
  bool try_advance(std::uint64_t expected) {
    // seq_cst: must not be reordered before the per-thread reservation
    // scan that justified the advance (store-load pairing with guard
    // entry publication).
    if (!era_->compare_exchange_strong(expected, expected + 1,
                                       std::memory_order_seq_cst)) {
      return false;
    }
    ctrs_.on_era_advance();
    obs::emit(obs::event::era_advance, expected + 1);
    return true;
  }

  /// Per-thread allocation tick: advance once every `freq` calls. The
  /// caller supplies its own (thread-local or per-builder) counter.
  /// `freq` is a power of two (every config validates it), so the test
  /// is a mask rather than a divide on each allocation.
  void tick(std::uint64_t& counter, std::uint64_t freq) {
    if ((++counter & (freq - 1)) == 0) advance();
  }

 private:
  padded<std::atomic<std::uint64_t>> era_;
  domain_counters& ctrs_;
};

/// Era-validated pointer acquisition (IBR's 2GE read, HE's get_protected,
/// Hyaline-S's deref): re-read the source until the published reservation
/// covers the current era. `publish(e)` must make era `e` visible to
/// scanners and return the reservation now in effect (>= e for CAS-max
/// publishers).
template <class T, class Publish>
T* protect_with_era(const std::atomic<T*>& src, const era_clock& clock,
                    std::uint64_t reserved, Publish&& publish) {
  for (;;) {
    T* p = src.load(std::memory_order_acquire);
    // seq_cst: the validating re-read must be ordered after the seq_cst
    // publication inside `publish` (store-load); an acquire load could
    // float above the published store and accept a stale era.
    const std::uint64_t e = clock.load(std::memory_order_seq_cst);
    if (e == reserved) return p;
    reserved = publish(e);
  }
}

}  // namespace hyaline::smr::core
