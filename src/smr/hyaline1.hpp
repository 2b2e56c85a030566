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
  /// Minimum batch size; effective size is max(batch_min, slots + 1),
  /// where the slots are the ones threads have claimed so far.
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
  struct slot_rec;  // one thread's slot (below)

 public:
  /// Same birth-era skip as Hyaline-S (see basic_domain): robust variants
  /// need the clean-edge traversal discipline.
  static constexpr smr::caps caps{.robust = Robust,
                                  .needs_clean_edges = Robust,
                                  .supports_trim = true};

  using node = smr::core::batch_node;

  explicit basic_domain1(config1 cfg = {}) : cfg_(validated(cfg)) {}

  ~basic_domain1() { batch::drain(); }

  /// The slots claimed so far: the most threads (nested guards counted)
  /// that have held one at once.
  std::size_t slot_count() const { return slots_.size(); }

  class guard {
   public:
    /// Transparent enter: the guard leases its dedicated slot (the 1:1
    /// thread-to-slot mapping of Fig. 4) from the domain's registry;
    /// nested guards on one thread lease distinct slots.
    explicit guard(basic_domain1& dom) : dom_(dom), lease_(dom.slots_) {
      obs::emit(obs::event::guard_enter, lease_.id());
      dom_.enter(lease_.rec());
      handle_ = nullptr;  // Fig. 4: enter returns Null
      builder_ = &dom_.builders().local();
    }

    ~guard() {
      obs::emit(obs::event::guard_exit, lease_.id());
      dom_.leave(lease_.rec(), handle_);
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
        slot_rec& sl = lease_.rec();
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
    void trim() { handle_ = dom_.trim(lease_.rec(), handle_); }

    unsigned slot() const { return lease_.id(); }

   private:
    basic_domain1& dom_;
    typename smr::core::thread_registry<slot_rec>::lease lease_;
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
    if (Robust && !std::has_single_bit(cfg.era_freq)) {
      throw std::invalid_argument(
          "hyaline::config1: era_freq must be a power of two");
    }
    return cfg;
  }

  static node* decode_ptr(std::uintptr_t w) {
    return reinterpret_cast<node*>(w & ~std::uintptr_t{1});
  }

  static void enter(slot_rec& sl) {
    // Fig. 4: Heads[slot] = {HRef=1, HPtr=Null}. Wait-free.
    // seq_cst: enter publication — pairs store-load with retire()'s
    // slot scan; a release store could be missed by a concurrent scan
    // that then skips refcounting this thread.
    sl.word.store(1, std::memory_order_seq_cst);
  }

  void leave(slot_rec& sl, node* handle) {
    // Fig. 4: SWAP out the whole list; the leaver owns every node in it.
    const std::uintptr_t old =
        // seq_cst: leave's SWAP is a linearization point — it atomically
        // takes ownership of the slot list against concurrent retires.
        sl.word.exchange(0, std::memory_order_seq_cst);
    node* head = decode_ptr(old);
    if (head != nullptr) {
      node* defer = nullptr;
      batch::drop_refs(head, handle, defer);
      batch::free_deferred(defer);
    }
  }

  node* trim(slot_rec& sl, node* handle) {
    node* curr =
        // seq_cst: trim snapshots the slot word in the same total order as
        // the retire CASes that extend the list.
        decode_ptr(sl.word.load(std::memory_order_seq_cst));
    if (curr != nullptr && curr != handle) {
      node* defer = nullptr;
      batch::drop_refs(batch::next_of(curr), handle, defer);
      batch::free_deferred(defer);
    }
    return curr;
  }

  void finalize_batch(batch_builder& b) {
    // The claimed slots, read once: the batch is sealed with a carrier
    // for each (a slot claimed after this read is found unused, see
    // thread_registry::size()).
    const unsigned n_slots = slots_.size();
    auto sealed = batch::seal(b, n_slots, 0);
    std::uint64_t inserts = 0;
    node* defer = nullptr;

    for (unsigned i = 0; i < n_slots; ++i) {
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
  /// Per-slot records and the ids guards lease them by (the 1:1 mapping
  /// shares the baselines' registry machinery).
  smr::core::thread_registry<slot_rec> slots_{this->counters().events};
};

/// Hyaline-1: single-width CAS, wait-free enter/leave, per-thread slots.
using domain_1 = basic_domain1<false>;
/// Hyaline-1S: robust variant (birth eras; fully robust, no slot cap).
using domain_1s = basic_domain1<true>;

}  // namespace hyaline
