// Epoch-based reclamation (EBR) baseline.
//
// The three-epoch variant used by the paper's test framework (Fraser [18,
// 19], Hart et al. [21], as packaged by Wen et al. [35]): a global epoch
// clock, per-thread epoch reservations made at enter and cleared at leave,
// and per-thread limbo lists. A node retired in epoch e is freed once the
// global epoch reaches e+2 (by then every thread active at unlink time has
// left). Fast, but a single stalled thread pins the epoch and blocks
// reclamation globally — the non-robustness that Figure 10a demonstrates.
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

/// Tuning knobs for the EBR domain.
struct ebr_config {
  /// Attempt a global-epoch advance every `advance_freq` retires (a
  /// power of two).
  std::uint64_t advance_freq = 64;
  /// Amortized guard entry: leave the epoch reservation published for up to
  /// this many consecutive guards on one thread. A lingering reservation is
  /// indistinguishable from one long-lived guard spanning the burst, so the
  /// three-epoch safety argument is untouched; the cost is that an *idle*
  /// thread can pin the epoch for one un-exited burst, which is why the
  /// harness quiesces threads that stop taking guards (see workload.hpp).
  /// 0 (the default) reproduces classic enter/leave exactly.
  std::uint32_t entry_burst = 0;
};

class ebr_domain {
  struct rec;  // one thread's reservation and limbo list (below)

 public:
  static constexpr smr::caps caps{};

  struct node : core::reclaimable {
    node* next = nullptr;
    std::uint64_t retire_epoch = 0;
  };

  template <class T>
  using protected_ptr = raw_handle<T>;

  explicit ebr_domain(ebr_config cfg = {}) : cfg_(validated(cfg)) {}

  ~ebr_domain() { drain(); }

  ebr_domain(const ebr_domain&) = delete;
  ebr_domain& operator=(const ebr_domain&) = delete;

  void on_alloc(node*) { stats_->on_alloc(); }
  stats& counters() { return *stats_; }
  const stats& counters() const { return *stats_; }

  class guard {
   public:
    explicit guard(ebr_domain& dom) : dom_(dom), lease_(dom.recs_) {
      obs::emit(obs::event::guard_enter, lease_.id());
      rec& r = lease_.rec();
      // Audit(ebr-entry-load): acquire, not seq_cst. Reading a stale-low
      // epoch publishes an older reservation, which only pins the epoch
      // longer (conservative); the three-epoch grace period tolerates one
      // epoch of entry staleness by design, and the seq_cst reservation
      // store below is what actually orders the guard against scanners.
      const std::uint64_t e = dom_.epoch_.load(std::memory_order_acquire);
      if (dom_.cfg_.entry_burst != 0 &&
          r.reservation.load(std::memory_order_relaxed) == e) {
        // Burst fast path: our reservation (published by a previous guard
        // on this thread and never cleared) already equals the current
        // epoch, so this guard is covered as if the previous one never
        // left. No store, no fence.
        return;
      }
      // seq_cst: Dekker store-load pairing with try_advance — the
      // publication must be ordered before this thread's structure reads,
      // and before any scanner load that could miss it and advance.
      r.reservation.store(e, std::memory_order_seq_cst);
      r.burst_left = dom_.cfg_.entry_burst;
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, lease_.id());
      rec& r = lease_.rec();
      if (r.burst_left > 1) {
        // Burst fast path: leave the reservation published for the next
        // guard. Bounded by entry_burst, after which we genuinely leave so
        // a thread that stops using the structure releases the epoch.
        --r.burst_left;
        return;
      }
      r.burst_left = 0;
      // Audit(ebr-exit-clear): release, not seq_cst (IBR's dtor already
      // did this). A scanner's seq_cst load that observes `inactive`
      // synchronizes with this store, so every critical-section read
      // happens-before any free it enables; nothing pairs with the
      // store-load direction at guard exit. Saves an XCHG per guard.
      r.reservation.store(inactive, std::memory_order_release);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    template <class T>
    raw_handle<T> protect(const std::atomic<T*>& src) {
      return raw_handle<T>(src.load(std::memory_order_acquire));
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.retire(lease_.rec(), static_cast<node*>(n));
    }

   private:
    ebr_domain& dom_;
    core::thread_registry<rec>::lease lease_;
  };

  /// Burst-entry cleanup for the *calling thread*: clear any reservation
  /// left lingering by the amortized guard exit so an idle thread cannot
  /// block epoch advancement. Must be called with no live guard on this
  /// thread; no-op when burst entry is off.
  void quiesce() {
    if (cfg_.entry_burst == 0) return;
    recs_.for_each_cached(leave_burst);
  }

  /// Quiescent-state cleanup: with every reservation inactive, advancing
  /// the epoch twice makes every limbo node reclaimable.
  void drain() {
    if (cfg_.entry_burst != 0) {
      // Quiescent by contract: no guard is live anywhere, so any published
      // reservation is a burst leftover of an idle or exited thread.
      recs_.for_each(leave_burst);
    }
    for (int i = 0; i < 3; ++i) try_advance();
    recs_.for_each([this](rec& r) { reclaim(r); });
  }

  std::uint64_t debug_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t inactive = ~std::uint64_t{0};

  static ebr_config validated(ebr_config cfg) {
    if (!std::has_single_bit(cfg.advance_freq)) {
      throw std::invalid_argument(
          "ebr_config: advance_freq must be a power of two");
    }
    return cfg;
  }

  struct alignas(cache_line_size) rec {
    std::atomic<std::uint64_t> reservation{inactive};
    core::limbo_queue<node> limbo;  // owner-thread private
    std::uint64_t retire_count = 0;
    /// Guards left in the current entry burst (owner-thread only).
    std::uint32_t burst_left = 0;
  };

  /// End a lingering burst: clear the reservation the amortized guard
  /// exit left published.
  static void leave_burst(rec& r) {
    r.burst_left = 0;
    // Audit(ebr-exit-clear): release, same argument as the guard dtor.
    r.reservation.store(inactive, std::memory_order_release);
  }

  void retire(rec& r, node* n) {
    stats_->stamp_retire(n);
    obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
    // seq_cst: the retire stamp must not read stale-low. A stamp one
    // behind the true epoch frees at stamp+2 while a reader reserved at
    // the true epoch can still be live (the advance that frees does not
    // wait for it) — a real use-after-free, so this stays strong.
    n->retire_epoch = epoch_.load(std::memory_order_seq_cst);
    r.limbo.push_back(n);
    if ((++r.retire_count & (cfg_.advance_freq - 1)) == 0) {
      try_advance();
    }
    reclaim(r);
  }

  /// Advance the global epoch if every active thread has observed it.
  void try_advance() {
    // Audit(ebr-advance-load): acquire, not seq_cst. A stale-low `e`
    // either flags fewer stragglers and then fails the seq_cst CAS in
    // try_advance(e) (which validates `e` against the real clock), or
    // returns early — both conservative.
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    const bool all_current = recs_.all_of([e](const rec& r) {
      // seq_cst: Dekker pairing with guard-entry publication. An acquire
      // load here could be ordered before a concurrent entry store and
      // miss a reservation that the advance must wait for.
      const std::uint64_t res =
          r.reservation.load(std::memory_order_seq_cst);
      return res == inactive || res >= e;  // else a straggler (or stalled)
    });
    if (all_current) epoch_.try_advance(e);
  }

  /// Free this thread's limbo nodes at least two epochs old. The limbo
  /// list is FIFO by retire epoch, so we pop from the head.
  void reclaim(rec& r) {
    // Audit(ebr-reclaim-load): acquire, not seq_cst. Any epoch value read
    // was genuinely reached, and reading it acquire completes the chain
    // leaver-release-clear -> advance CAS -> this load, so the departed
    // readers' accesses happen-before the frees below. Stale-low only
    // delays frees.
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    r.limbo.reclaim_ready(
        stats_->events,
        [e](const node* n) { return n->retire_epoch + 2 <= e; },
        [this](node* n) { stats_->free_node(n); });
  }

  padded_stats stats_;
  const ebr_config cfg_;
  core::thread_registry<rec> recs_{stats_->events};
  core::era_clock epoch_{2, stats_->events};
};

}  // namespace hyaline::smr
