// Hazard Eras (HE) baseline — Ramalhete & Correia [31].
//
// Reconciles EBR's speed with HP's robustness: instead of publishing
// pointer *addresses*, a thread publishes the current *era* into a leased
// hazard slot. Every node records its birth era at allocation and its
// retire era at retirement; a retired node is freed only when no published
// era falls inside [birth, retire]. Robust: a stalled thread pins only
// nodes whose lifetime overlaps its published eras.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/era_clock.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/retired_batch.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr {

/// Tuning knobs for the HE domain.
struct he_config {
  /// Bump the global era clock every `era_freq` allocations a thread
  /// makes in the domain (a power of two).
  std::uint64_t era_freq = 64;
  /// Scan this thread's retired list at this size (0 = auto:
  /// 2 * claimed records * max_hazards).
  std::size_t scan_threshold = 0;
};

class he_domain {
  struct rec;  // one thread's era slots and retired list (below)

 public:
  /// Same per-access reservation discipline as HP: a published era only
  /// protects nodes not yet retired at publication time, so traversals must
  /// not cross frozen (flagged/tagged) edges (see ds/natarajan_tree.hpp).
  static constexpr smr::caps caps{.pointer_publication = true,
                                  .robust = true,
                                  .needs_clean_edges = true};

  /// Era slots per guard; the most protection handles live at once.
  static constexpr unsigned max_hazards = 8;

  struct node : core::reclaimable {
    node* next = nullptr;
    std::uint64_t birth_era = 0;
    std::uint64_t retire_era = 0;
  };

  class guard;

  template <class T>
  using protected_ptr = slot_handle<guard, T>;

  explicit he_domain(he_config cfg = {}) : cfg_(validated(cfg)) {}

  ~he_domain() { drain(); }

  he_domain(const he_domain&) = delete;
  he_domain& operator=(const he_domain&) = delete;

  void on_alloc(node* n) {
    era_.tick(stats_->on_alloc(), cfg_.era_freq);
    // Audit(he-birth-load): acquire, not seq_cst. A stale-low birth era
    // only widens [birth, retire], so the node matches more published
    // eras and is freed later — strictly conservative.
    n->birth_era = era_.load(std::memory_order_acquire);
  }

  stats& counters() { return *stats_; }
  const stats& counters() const { return *stats_; }

  class guard {
   public:
    explicit guard(he_domain& dom) : dom_(dom), lease_(dom.recs_) {
      obs::emit(obs::event::guard_enter, lease_.id());
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, lease_.id());
      // Clear still-leased era slots only; handles self-clear on release,
      // so the common guard exit writes nothing (see hp_domain::~guard).
      unsigned mask = slots_.leased_mask();
      if (mask == 0) return;
      rec& r = lease_.rec();
      do {
        const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
        r.eras[i].store(0, std::memory_order_release);
        mask &= mask - 1;
      } while (mask != 0);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// HE get_protected: publish the current era in a leased slot and
    /// re-read until the era is stable across the load.
    template <class T>
    slot_handle<guard, T> protect(const std::atomic<T*>& src) {
      const unsigned idx = slots_.lease("he_domain");
      std::atomic<std::uint64_t>& he = lease_.rec().eras[idx];
      T* p = core::protect_with_era(
          src, dom_.era_, he.load(std::memory_order_relaxed),
          [&he](std::uint64_t e) {
            // seq_cst: era publication must be ordered before the
            // validating clock re-read in protect_with_era (store-load
            // pairing with can_free's scan).
            he.store(e, std::memory_order_seq_cst);
            return e;
          });
      return {this, idx, p};
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.retire(lease_.rec(), static_cast<node*>(n));
    }

    /// Internal: slot_handle check-in (clear the era, return the slot).
    void release_protection_slot(unsigned idx) {
      lease_.rec().eras[idx].store(0, std::memory_order_release);
      slots_.unlease(idx);
    }

   private:
    he_domain& dom_;
    core::thread_registry<rec>::lease lease_;
    slot_allocator<max_hazards> slots_;
  };

  void drain() {
    recs_.for_each([this](rec& r) { scan(r); });
  }

 private:
  static he_config validated(he_config cfg) {
    if (!std::has_single_bit(cfg.era_freq)) {
      throw std::invalid_argument(
          "he_config: era_freq must be a power of two");
    }
    return cfg;
  }

  struct alignas(cache_line_size) rec {
    std::atomic<std::uint64_t> eras[max_hazards] = {};
    core::retired_list<node> retired;  // owner-thread private
  };

  std::size_t scan_threshold() const {
    return cfg_.scan_threshold != 0
               ? cfg_.scan_threshold
               : 2 * std::size_t{recs_.size()} * max_hazards;
  }

  void retire(rec& r, node* n) {
    stats_->stamp_retire(n);
    obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
    // seq_cst: a stale-low retire stamp shrinks [birth, retire] and lets
    // can_free miss a published era that still covers the node — early
    // free, so this read stays in the total order.
    n->retire_era = era_.load(std::memory_order_seq_cst);
    if (r.retired.push(n, scan_threshold())) {
      scan(r);
      r.retired.rearm(stats_->events, scan_threshold());
    }
  }

  bool can_free(const node* n) const {
    return recs_.all_of([n](const rec& r) {
      for (unsigned i = 0; i < max_hazards; ++i) {
        // seq_cst: Dekker pairing with the protect() era publication — a
        // weaker load could be ordered before a concurrent publish and
        // free a node the reader has just validated.
        const std::uint64_t e = r.eras[i].load(std::memory_order_seq_cst);
        if (e != 0 && n->birth_era <= e && e <= n->retire_era) return false;
      }
      return true;
    });
  }

  void scan(rec& r) {
    r.retired.scan(
        stats_->events, [this](const node* n) { return can_free(n); },
        [this](node* n) { stats_->free_node(n); });
  }

  padded_stats stats_;
  const he_config cfg_;
  core::thread_registry<rec> recs_{stats_->events};
  core::era_clock era_{1, stats_->events};
};

}  // namespace hyaline::smr
