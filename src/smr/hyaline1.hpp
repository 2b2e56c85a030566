// Hyaline-1 and Hyaline-1S: the specialized single-width-CAS variants
// (paper §3.2 "Hyaline-1 for Single-width CAS", Figure 4, and the 1S rows
// of Figure 5).
//
// Every thread owns a dedicated slot, which lets HRef shrink to a single
// bit merged into HPtr (bit 0 of the head word):
//   - enter is a plain store of {HRef=1, HPtr=Null}  (wait-free),
//   - leave is a SWAP with {0, Null}; the leaver exclusively owns the
//     whole detached list and dereferences every node in it,
//   - retire counts the number of slots a batch was inserted into
//     (`Inserts`) instead of adjusting predecessors; the batch's NRef is
//     adjusted by that count at the end (so no Adjs constant and no
//     power-of-two slot-count requirement).
//
// Hyaline-1S adds birth eras exactly like Hyaline-S, but since the
// thread-to-slot mapping is 1:1, `touch` degenerates to an ordinary store
// and no Ack machinery is needed (a stalled thread only ever poisons its
// own slot, which no one else uses) — this is why Figure 10a shows
// Hyaline-1S tracking HP/HE/IBR exactly.
//
// Only that slot protocol lives here; the node header and the batch
// lifecycle are shared with Hyaline (smr/core/hyaline_batch.hpp).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/era_clock.hpp"
#include "smr/core/hyaline_batch.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"

namespace hyaline {

/// Tuning knobs for a Hyaline-1(S) domain.
struct config1 {
  /// Maximum number of threads (== number of slots; 1:1 mapping).
  std::size_t max_threads = 128;

  /// Minimum batch size; effective size is max(batch_min, max_threads+1).
  std::size_t batch_min = 64;

  /// Hyaline-1S: era clock increment frequency (a power of two).
  std::uint64_t era_freq = 64;
};

/// A Hyaline-1 / Hyaline-1S reclamation domain.
template <bool Robust>
class basic_domain1
    : public smr::core::batch_layer<basic_domain1<Robust>, Robust> {
  using batch = smr::core::batch_layer<basic_domain1, Robust>;
  friend batch;

 public:
  /// Same birth-era skip as Hyaline-S (see basic_domain): robust variants
  /// need the clean-edge traversal discipline.
  static constexpr smr::caps caps{.robust = Robust,
                                  .needs_clean_edges = Robust,
                                  .supports_trim = true};

  using node = smr::core::batch_node;

  explicit basic_domain1(config1 cfg = {})
      : cfg_(validated(cfg)),
        slots_(static_cast<unsigned>(cfg_.max_threads)) {
    slots_.pool()->attach(&this->counters().events);
  }

  ~basic_domain1() { batch::drain(); }

  std::size_t slot_count() const { return cfg_.max_threads; }

  class guard {
   public:
    /// Transparent enter: the guard leases its dedicated slot (the 1:1
    /// thread-to-slot mapping of Fig. 4) from the domain's pool; nested
    /// guards on one thread lease distinct slots.
    explicit guard(basic_domain1& dom)
        : dom_(dom), lease_(dom.slots_.pool()), slot_(lease_.tid()) {
      obs::emit(obs::event::guard_enter, slot_);
      dom_.enter(slot_);
      handle_ = nullptr;  // Fig. 4: enter returns Null
      builder_ = &dom_.local();
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, slot_);
      dom_.leave(slot_, handle_);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    template <class T>
    smr::raw_handle<T> protect(const std::atomic<T*>& src) {
      if constexpr (!Robust) {
        return smr::raw_handle<T>(src.load(std::memory_order_acquire));
      } else {
        // 1:1 thread-to-slot mapping: touch is an ordinary store
        // (Fig. 5 line 21 comment).
        slot_rec& sl = dom_.slots_[slot_];
        return smr::raw_handle<T>(smr::core::protect_with_era(
            src, dom_.era(),
            // seq_cst: this thread's own reservation word, but scanners read
            // it seq_cst — keep the read in the same total order.
            sl.access_era.load(std::memory_order_seq_cst),
            [&sl](std::uint64_t e) {
              // seq_cst: era publication must be ordered before the validating
              // clock re-read in protect_with_era (store-load pairing with the
              // retire-side access_era scan).
              sl.access_era.store(e, std::memory_order_seq_cst);
              return e;
            }));
      }
    }

    template <class T>
    void retire(T* n) { dom_.retire_into(*builder_, n); }

    /// §3.3 trimming (handles in Hyaline-1 exist only for this).
    void trim() { handle_ = dom_.trim(slot_, handle_); }

    unsigned slot() const { return static_cast<unsigned>(slot_); }

   private:
    basic_domain1& dom_;
    smr::core::tid_lease lease_;
    std::size_t slot_;
    node* handle_;
    typename basic_domain1::batch_builder* builder_;
  };

  /// Introspection for tests.
  bool debug_slot_active(std::size_t slot) const {
    return slots_[slot].word.load(std::memory_order_relaxed) & 1;
  }
  node* debug_slot_head(std::size_t slot) const {
    return decode_ptr(slots_[slot].word.load(std::memory_order_relaxed));
  }
  std::uint64_t debug_access_era(std::size_t slot) const {
    return slots_[slot].access_era.load(std::memory_order_relaxed);
  }

 private:
  // Head word: [HPtr | HRef:1] — bit 0 is the single-bit reference flag.
  struct alignas(cache_line_size) slot_rec {
    std::atomic<std::uintptr_t> word{0};
    std::atomic<std::uint64_t> access_era{0};  // Hyaline-1S only
  };

  using batch_builder = typename batch::builder;

  static config1 validated(config1 cfg) {
    if (cfg.max_threads == 0) {
      throw std::invalid_argument(
          "hyaline::config1: max_threads must be nonzero (it is the slot "
          "count of the 1:1 thread-to-slot mapping)");
    }
    if (Robust && !std::has_single_bit(cfg.era_freq)) {
      throw std::invalid_argument(
          "hyaline::config1: era_freq must be a power of two");
    }
    return cfg;
  }

  static node* decode_ptr(std::uintptr_t w) {
    return reinterpret_cast<node*>(w & ~std::uintptr_t{1});
  }

  void enter(std::size_t slot) {
    // Fig. 4: Heads[slot] = {HRef=1, HPtr=Null}. Wait-free.
    // seq_cst: enter publication — pairs store-load with retire()'s
    // slot scan; a release store could be missed by a concurrent scan
    // that then skips refcounting this thread.
    slots_[slot].word.store(1, std::memory_order_seq_cst);
  }

  void leave(std::size_t slot, node* handle) {
    // Fig. 4: SWAP out the whole list; the leaver owns every node in it.
    const std::uintptr_t old =
        // seq_cst: leave's SWAP is a linearization point — it atomically
        // takes ownership of the slot list against concurrent retires.
        slots_[slot].word.exchange(0, std::memory_order_seq_cst);
    node* head = decode_ptr(old);
    if (head != nullptr) {
      node* defer = nullptr;
      batch::drop_refs(head, handle, defer);
      batch::free_deferred(defer);
    }
  }

  node* trim(std::size_t slot, node* handle) {
    node* curr =
        // seq_cst: trim snapshots the slot word in the same total order as
        // the retire CASes that extend the list.
        decode_ptr(slots_[slot].word.load(std::memory_order_seq_cst));
    if (curr != nullptr && curr != handle) {
      node* defer = nullptr;
      batch::drop_refs(batch::next_of(curr), handle, defer);
      batch::free_deferred(defer);
    }
    return curr;
  }

  void finalize_batch(batch_builder& b) {
    const std::size_t n_slots = cfg_.max_threads;
    auto sealed = batch::seal(b, n_slots, 0);
    std::uint64_t inserts = 0;
    node* defer = nullptr;

    for (std::size_t i = 0; i < n_slots; ++i) {
      slot_rec& sl = slots_[i];
      for (;;) {
        // seq_cst: Dekker pairing with enter()'s publication — a weaker
        // read could miss a freshly entered thread and skip its refcount.
        const std::uintptr_t w = sl.word.load(std::memory_order_seq_cst);
        if ((w & 1) == 0 || sealed.predates(sl.access_era)) break;
        if (!sealed.hand_off(decode_ptr(w), [&](node* carrier) {
              std::uintptr_t expected = w;
              // seq_cst: retire's list-extension CAS is a linearization
              // point ordered against enter/leave on the slot word.
              return sl.word.compare_exchange_strong(
                  expected, reinterpret_cast<std::uintptr_t>(carrier) | 1,
                  std::memory_order_seq_cst);
            })) {
          continue;
        }
        ++inserts;  // Fig. 4: REF #2 replaced with Inserts++
        break;
      }
    }
    // Fig. 4: REF #3 replaced with adjust(FirstNode, Inserts).
    batch::adjust(sealed.refs, inserts, defer);
    batch::free_deferred(defer);
  }

  const config1 cfg_;
  /// Per-slot records plus the lease pool guards check their slot out of
  /// (the 1:1 mapping shares the baselines' registry machinery).
  smr::core::thread_registry<slot_rec> slots_;
};

/// Hyaline-1: single-width CAS, wait-free enter/leave, per-thread slots.
using domain_1 = basic_domain1<false>;
/// Hyaline-1S: robust variant (birth eras; fully robust, no slot cap).
using domain_1s = basic_domain1<true>;

}  // namespace hyaline
