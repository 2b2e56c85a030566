// Interval-Based Reclamation, 2GE variant (IBR) — Wen et al. [35].
//
// The scheme whose API the paper calls "reminiscent of EBR": each thread
// reserves a single era *interval* [lo, hi]; enter sets lo = hi = era, and
// every pointer acquisition extends hi to the current era (no per-pointer
// "unreserve", unlike HP/HE). Nodes carry birth and retire eras; a retired
// node is freed when its lifetime interval [birth, retire] intersects no
// thread's reservation interval. Robust, O(n) reclamation.
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

/// Tuning knobs for the IBR domain.
struct ibr_config {
  /// Bump the global era clock every `era_freq` allocations a thread
  /// makes in the domain (a power of two).
  std::uint64_t era_freq = 64;
  /// Scan this thread's retired list at this size (0 = auto: twice the
  /// claimed records).
  std::size_t scan_threshold = 0;
  /// Amortized guard entry: keep the [lo, hi] reservation published for up
  /// to this many consecutive guards on one thread. A lingering interval
  /// pins exactly what one long-lived guard spanning the burst would pin
  /// (protect() still extends hi per acquisition), so robustness degrades
  /// only by the bounded burst length. 0 (default) = classic enter/leave.
  std::uint32_t entry_burst = 0;
};

class ibr_domain {
  struct rec;  // one thread's interval and retired list (below)

 public:
  /// needs_clean_edges: a scanner may read this thread's `hi` just before a
  /// concurrent protect() extends it, and free a freshly-born node the
  /// reader is about to return through a frozen (already-unlinked) edge —
  /// so traversals must only cross clean edges (ds/natarajan_tree.hpp).
  static constexpr smr::caps caps{.robust = true, .needs_clean_edges = true};

  struct node : core::reclaimable {
    node* next = nullptr;
    std::uint64_t birth_era = 0;
    std::uint64_t retire_era = 0;
  };

  template <class T>
  using protected_ptr = raw_handle<T>;

  explicit ibr_domain(ibr_config cfg = {}) : cfg_(validated(cfg)) {}

  ~ibr_domain() { drain(); }

  ibr_domain(const ibr_domain&) = delete;
  ibr_domain& operator=(const ibr_domain&) = delete;

  void on_alloc(node* n) {
    era_.tick(stats_->on_alloc(), cfg_.era_freq);
    // Audit(ibr-birth-load): acquire, not seq_cst. A stale-low birth era
    // makes the node look older, so its lifetime interval intersects more
    // reservations and it is freed later — strictly conservative.
    n->birth_era = era_.load(std::memory_order_acquire);
  }

  stats& counters() { return *stats_; }
  const stats& counters() const { return *stats_; }

  class guard {
   public:
    explicit guard(ibr_domain& dom) : dom_(dom), lease_(dom.recs_) {
      obs::emit(obs::event::guard_enter, lease_.id());
      rec& r = lease_.rec();
      if (dom_.cfg_.entry_burst != 0 &&
          r.lo.load(std::memory_order_relaxed) != inactive) {
        // Burst fast path: the previous guard's [lo, hi] is still
        // published, which covers this guard exactly as one long guard
        // would — protect() extends hi per acquisition regardless. No era
        // load, no stores.
        return;
      }
      // Audit(ibr-entry-load): acquire, not seq_cst. A stale-low era only
      // widens what this reservation pins: lo lower than current pins
      // strictly more retired nodes, and hi lower is harmless because the
      // constructor grants no pointers — protect() extends hi through its
      // seq_cst validation loop before any acquisition.
      const std::uint64_t e = dom_.era_.load(std::memory_order_acquire);
      // hi before lo: `lo` is the activity flag scanners test first, so it
      // must become visible last. The reverse order lets can_free observe
      // {lo = e, hi = 0-from-last-leave} — an empty interval — and free
      // nodes retired during this (live) reservation.
      // seq_cst: both stores pair store-load with can_free's scan; the
      // publication must precede this thread's structure reads in the
      // single total order or a scanner could miss a live interval.
      r.hi.store(e, std::memory_order_seq_cst);
      r.lo.store(e, std::memory_order_seq_cst);
      r.burst_left = dom_.cfg_.entry_burst;
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, lease_.id());
      rec& r = lease_.rec();
      if (r.burst_left > 1) {
        // Burst fast path: keep the interval published for the next guard
        // (bounded by entry_burst; harness threads quiesce on idle/exit).
        --r.burst_left;
        return;
      }
      r.burst_left = 0;
      // release: the scanner's seq_cst read of the cleared words
      // synchronizes with these stores, ordering this guard's reads
      // before any free they unblock (hazard-clear pattern; no
      // store-load pairing is needed on the way out).
      r.lo.store(inactive, std::memory_order_release);
      r.hi.store(0, std::memory_order_release);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// 2GE-IBR read: extend the reservation's upper bound to the current
    /// era, re-reading the pointer until the era is stable.
    template <class T>
    raw_handle<T> protect(const std::atomic<T*>& src) {
      rec& r = lease_.rec();
      return raw_handle<T>(core::protect_with_era(
          src, dom_.era_, r.hi.load(std::memory_order_relaxed),
          [&r](std::uint64_t e) {
            // seq_cst: the hi extension must be ordered before the
            // validating era re-read in protect_with_era (store-load) so
            // a scanner cannot free the node between publish and check.
            r.hi.store(e, std::memory_order_seq_cst);
            return e;
          }));
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.retire(lease_.rec(), static_cast<node*>(n));
    }

   private:
    ibr_domain& dom_;
    core::thread_registry<rec>::lease lease_;
  };

  /// Clear the calling thread's lingering burst reservation (see
  /// ebr_domain::quiesce). Must be called with no live guard on this
  /// thread; no-op when burst entry is off.
  void quiesce() {
    if (cfg_.entry_burst == 0) return;
    recs_.for_each_cached(leave_burst);
  }

  void drain() {
    if (cfg_.entry_burst != 0) {
      // Quiescent by contract: any published interval is a burst leftover.
      recs_.for_each(leave_burst);
    }
    recs_.for_each([this](rec& r) { scan(r); });
  }

 private:
  static constexpr std::uint64_t inactive = ~std::uint64_t{0};

  static ibr_config validated(ibr_config cfg) {
    if (!std::has_single_bit(cfg.era_freq)) {
      throw std::invalid_argument(
          "ibr_config: era_freq must be a power of two");
    }
    return cfg;
  }

  struct alignas(cache_line_size) rec {
    std::atomic<std::uint64_t> lo{inactive};
    std::atomic<std::uint64_t> hi{0};
    core::retired_list<node> retired;  // owner-thread private
    /// Guards left in the current entry burst (owner-thread only).
    std::uint32_t burst_left = 0;
  };

  /// End a lingering burst: clear the interval the amortized guard exit
  /// left published.
  static void leave_burst(rec& r) {
    r.burst_left = 0;
    // Audit(ibr-quiesce-clear): release, same hazard-clear argument as
    // the guard destructor above.
    r.lo.store(inactive, std::memory_order_release);
    r.hi.store(0, std::memory_order_release);
  }

  std::size_t scan_threshold() const {
    return cfg_.scan_threshold != 0 ? cfg_.scan_threshold
                                    : 2 * std::size_t{recs_.size()};
  }

  void retire(rec& r, node* n) {
    stats_->stamp_retire(n);
    obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
    // seq_cst: a stale-low retire stamp shrinks the node's lifetime
    // interval, so can_free misses reservations that still cover it and
    // frees early — this read must stay in the total order.
    n->retire_era = era_.load(std::memory_order_seq_cst);
    if (r.retired.push(n, scan_threshold())) {
      scan(r);
      r.retired.rearm(stats_->events, scan_threshold());
    }
  }

  bool can_free(const node* n) const {
    return recs_.all_of([n](const rec& r) {
      // seq_cst: Dekker pairing with the guard's interval publication —
      // weaker loads could be ordered before a concurrent entry/extension
      // store and free a node the reader is about to use.
      const std::uint64_t lo = r.lo.load(std::memory_order_seq_cst);
      if (lo == inactive) return true;
      // seq_cst: same Dekker pairing as the lo read above.
      const std::uint64_t hi = r.hi.load(std::memory_order_seq_cst);
      // Intervals intersect iff birth <= hi && retire >= lo.
      return !(n->birth_era <= hi && n->retire_era >= lo);
    });
  }

  void scan(rec& r) {
    r.retired.scan(
        stats_->events, [this](const node* n) { return can_free(n); },
        [this](node* n) { stats_->free_node(n); });
  }

  padded_stats stats_;
  const ibr_config cfg_;
  core::thread_registry<rec> recs_{stats_->events};
  core::era_clock era_{1, stats_->events};
};

}  // namespace hyaline::smr
