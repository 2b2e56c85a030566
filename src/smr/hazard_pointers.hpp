// Hazard Pointers (HP) baseline — Michael [26].
//
// Per-thread array of hazard slots; `protect` leases a slot from the
// guard, publishes the (untagged) pointer, validates by re-reading the
// source, and returns an RAII handle that clears the slot when it dies.
// Retired nodes collect in a per-thread list; once the list exceeds the
// scan threshold, the thread snapshots all hazards and frees every retired
// node not present in the snapshot. Robust (a stalled thread pins at most
// its own K hazards) but pays a store+fence per pointer acquisition — the
// slowness the paper's figures show.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/align.hpp"
#include "common/tagged_ptr.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/retired_batch.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr {

/// Tuning knobs for the HP domain.
struct hp_config {
  /// Scan when a thread's retired list reaches this size (0 = auto:
  /// 2 * claimed records * max_hazards, the classic H·R rule).
  std::size_t scan_threshold = 0;
};

class hp_domain {
  struct rec;  // one thread's hazards and retired list (below)

 public:
  /// protect() publishes per-access reservations: data structures must only
  /// traverse edges whose re-read value is clean (untagged) — a frozen
  /// (flagged/tagged) edge validates forever and proves nothing about the
  /// target's retirement (see ds/natarajan_tree.hpp).
  static constexpr smr::caps caps{.pointer_publication = true,
                                  .robust = true,
                                  .needs_clean_edges = true};

  /// Hazard slots per guard; the most protection handles that may be live
  /// at once. Structures static_assert their peak against this.
  static constexpr unsigned max_hazards = 8;

  struct node : core::reclaimable {
    node* next = nullptr;
  };

  class guard;

  template <class T>
  using protected_ptr = slot_handle<guard, T>;

  explicit hp_domain(hp_config cfg = {}) : cfg_(cfg) {}

  ~hp_domain() { drain(); }

  hp_domain(const hp_domain&) = delete;
  hp_domain& operator=(const hp_domain&) = delete;

  void on_alloc(node*) { stats_->on_alloc(); }
  stats& counters() { return *stats_; }
  const stats& counters() const { return *stats_; }

  class guard {
   public:
    explicit guard(hp_domain& dom) : dom_(dom), lease_(dom.recs_) {
      obs::emit(obs::event::guard_enter, lease_.id());
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, lease_.id());
      // Clear still-leased hazards (leave). Handles self-clear their slot
      // on release, so the leased mask — and this loop — is normally
      // empty: the common guard exit writes nothing to the hazard array.
      unsigned mask = slots_.leased_mask();
      if (mask == 0) return;
      rec& r = lease_.rec();
      do {
        const unsigned i = static_cast<unsigned>(std::countr_zero(mask));
        r.hazards[i].store(nullptr, std::memory_order_release);
        mask &= mask - 1;
      } while (mask != 0);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// Publish-and-validate loop in a freshly leased slot. The published
    /// value is stripped of tag bits so it compares equal to the pointer
    /// later passed to retire().
    template <class T>
    slot_handle<guard, T> protect(const std::atomic<T*>& src) {
      const unsigned idx = slots_.lease("hp_domain");
      std::atomic<void*>& hp = lease_.rec().hazards[idx];
      T* p = src.load(std::memory_order_acquire);
      for (;;) {
        // seq_cst: the classic HP store-load pairing — the hazard
        // publication must precede the validating re-read of `src` in the
        // single total order, and pair with hazard_snapshot's scan;
        // release/acquire would let the re-read float above the store.
        hp.store(untag(p), std::memory_order_seq_cst);
        // seq_cst: the validating re-read half of the pairing above.
        T* q = src.load(std::memory_order_seq_cst);
        if (q == p) return {this, idx, p};
        p = q;
      }
    }

    template <class T>
    void retire(T* n) {
      n->smr_dtor = core::dtor_thunk<T>();
      dom_.retire(lease_.rec(), static_cast<node*>(n));
    }

    /// Internal: slot_handle check-in (clear the hazard, return the slot).
    void release_protection_slot(unsigned idx) {
      lease_.rec().hazards[idx].store(nullptr, std::memory_order_release);
      slots_.unlease(idx);
    }

   private:
    hp_domain& dom_;
    core::thread_registry<rec>::lease lease_;
    slot_allocator<max_hazards> slots_;
  };

  /// Quiescent-state cleanup: with all hazards clear, one scan per thread
  /// frees everything.
  void drain() {
    recs_.for_each([this](rec& r) { scan(r); });
  }

 private:
  struct alignas(cache_line_size) rec {
    std::atomic<void*> hazards[max_hazards] = {};
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
    if (r.retired.push(n, scan_threshold())) {
      scan(r);
      r.retired.rearm(stats_->events, scan_threshold());
    }
  }

  std::vector<void*> hazard_snapshot() {
    std::vector<void*> snapshot;
    snapshot.reserve(std::size_t{recs_.size()} * max_hazards);
    recs_.for_each([&snapshot](const rec& r) {
      for (unsigned i = 0; i < max_hazards; ++i) {
        // seq_cst: Dekker pairing with protect()'s hazard publication — a
        // weaker scan load could be ordered before a concurrent publish
        // and free a node its reader has just validated.
        void* h = r.hazards[i].load(std::memory_order_seq_cst);
        if (h != nullptr) snapshot.push_back(h);
      }
    });
    std::sort(snapshot.begin(), snapshot.end());
    return snapshot;
  }

  void scan(rec& r) {
    std::vector<void*> snapshot = hazard_snapshot();
    r.retired.scan(
        stats_->events,
        [&snapshot](const node* n) {
          return !std::binary_search(snapshot.begin(), snapshot.end(),
                                     static_cast<const void*>(n));
        },
        [this](node* n) { stats_->free_node(n); });
  }

  padded_stats stats_;
  const hp_config cfg_;
  core::thread_registry<rec> recs_{stats_->events};
};

}  // namespace hyaline::smr
