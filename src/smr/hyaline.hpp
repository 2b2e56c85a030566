// Hyaline and Hyaline-S: the paper's primary contribution.
//
// This header implements the slot protocol of the scalable multiple-list
// algorithm of §3.2 / Figure 3 (enter, leave, trim, retire's insertion),
// the robust Hyaline-S extension of §4.2 / Figure 5 (per-slot access eras,
// the `touch` CAS-max, Ack-based stalled-slot avoidance), and the adaptive
// slot resizing of §4.3 / Figure 6, in one template over the batch layer
// it shares with Hyaline-1 (smr/core/hyaline_batch.hpp):
//
//   basic_domain<Head, Robust>
//     Head   - head-tuple policy (head_packed / head_dw / head_llsc),
//              see common/head_policy.hpp
//     Robust - false: basic Hyaline; true: Hyaline-S
//
// Exported aliases (bottom of file): hyaline::domain, domain_dw,
// domain_llsc, domain_s, domain_s_llsc.
//
// Reference-count arithmetic is wrapping uint64: Adjs = floor((2^64-1)/k)+1
// so k*Adjs == 0 (mod 2^64), which is what lets a batch's counter reach
// zero only after all k per-slot adjustments *and* all referencing threads'
// decrements have landed (§3.2).
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "common/align.hpp"
#include "common/head_policy.hpp"
#include "common/slot_directory.hpp"
#include "obs/trace.hpp"
#include "smr/caps.hpp"
#include "smr/core/era_clock.hpp"
#include "smr/core/hyaline_batch.hpp"
#include "smr/protected_ptr.hpp"

namespace hyaline {

/// Tuning knobs for a Hyaline(-S) domain.
struct config {
  /// Number of slots k (power of two). 0 = next_pow2(hardware threads),
  /// at least 4. The paper caps k at the next power of two of the core
  /// count (128 on the 72-core testbed).
  std::size_t slots = 0;

  /// Hyaline-S only: allow the adaptive §4.3 slot-directory growth up to
  /// this many slots. 0 = no growth (the capped variant whose robustness
  /// cliff Figure 10a shows at 57 stalled threads).
  std::size_t max_slots = 0;

  /// Minimum batch size. The effective batch size is max(batch_min, k+1):
  /// a batch needs one carrier node per slot plus the REFS node (§3.2).
  /// The paper's evaluation uses 64.
  std::size_t batch_min = 64;

  /// Hyaline-S: global era clock increment frequency (one bump per
  /// `era_freq` allocations a thread makes in the domain, Fig. 5 line 18;
  /// a power of two).
  std::uint64_t era_freq = 64;

  /// Hyaline-S: Ack threshold above which a slot is presumed occupied by
  /// stalled threads and avoided by enter (§4.2 suggests e.g. 8192).
  std::int64_t ack_threshold = 8192;

  /// Amortized guard entry for the transparent guard: the thread keeps its
  /// slot presence (its unit of HRef) across up to this many consecutive
  /// guards. The first guard of a burst runs choose_slot() and enter (the
  /// FAA); each exit *parks* the presence instead of leaving (no CAS) while
  /// the slot's retirement list is empty, and the next guard adopts it
  /// (no choose_slot, no FAA). An exit that finds the list non-empty, or
  /// that ends the burst, leaves as usual. §3.3 trimming is the precedent:
  /// a thread may stay in its slot across critical sections, and a parked
  /// presence is indistinguishable from one guard spanning the burst.
  /// Parking pins nothing: while the thread holds HRef no one can cut the
  /// list, so an empty list means no batch arrived since it entered.
  /// Hyaline-S probes for stalled slots at each presence entry, so at most
  /// `entry_burst` guards apart.
  ///
  /// Idle-thread contract: a thread that stops taking guards calls
  /// quiesce(), or its parked slot pins every batch that arrives there
  /// until drain(). A thread that exits without it passes the presence on
  /// with its builder: the next thread to claim the builder adopts it at
  /// its first guard, which leaves on exit if a batch arrived.
  /// 0 (default) = enter and leave on every guard, the paper's
  /// transparency with no contract. Nested guards and guards built with
  /// an explicit slot hint always enter and leave.
  std::uint32_t entry_burst = 0;
};

namespace detail {

inline std::size_t default_slot_count() {
  std::size_t hw = std::thread::hardware_concurrency();
  if (hw < 4) hw = 4;
  return std::bit_ceil(hw);
}

/// Adjs for k slots (k a power of two): floor((2^64-1)/k) + 1, so that
/// k * Adjs wraps to exactly 0.
inline constexpr std::uint64_t adjs_for(std::size_t k) {
  return ~std::uint64_t{0} / k + 1;  // k == 1 -> wraps to 0 (simple version)
}

/// The thread's burst presence (config::entry_burst), kept on its batch
/// builder: none, parked between guards, or held by a live owner guard;
/// its slot; and the guard exits it has left. A parked presence always has
/// a Null handle, so none is stored. Read and written by the builder's
/// holder only (an exited thread's passes on with the builder), except
/// drain() (quiescent).
struct burst_presence {
  enum class state : std::uint8_t { none, parked, held };
  std::size_t presence_slot = 0;
  std::uint32_t burst_left = 0;
  state presence = state::none;
};

}  // namespace detail

/// A Hyaline / Hyaline-S reclamation domain.
template <template <class> class Head, bool Robust>
class basic_domain : public smr::core::batch_layer<basic_domain<Head, Robust>,
                                                   Robust,
                                                   detail::burst_presence> {
  using batch =
      smr::core::batch_layer<basic_domain, Robust, detail::burst_presence>;
  friend batch;
  using presence_state = detail::burst_presence::state;

 public:
  /// Hyaline-S (needs_clean_edges): batch insertion skips slots whose
  /// access era predates every node in the batch, so a reader holding
  /// frozen (already spliced-out) garbage can reach a young node whose
  /// batch it was never refcounted into. Robust variants therefore require
  /// the clean-edge traversal discipline (see ds/natarajan_tree.hpp);
  /// basic Hyaline pins every batch retired during the guard's lifetime
  /// and does not.
  static constexpr smr::caps caps{.robust = Robust,
                                  .needs_clean_edges = Robust,
                                  .supports_trim = true};

  /// Intrusive header every reclaimable object must derive from.
  using node = smr::core::batch_node;

  using head_policy = Head<node>;
  using head_val = typename head_policy::val;

  explicit basic_domain(config cfg = {})
      : cfg_(validated(cfg)),
        slots_(normalize_k(cfg_.slots),
               Robust && cfg_.max_slots > normalize_k(cfg_.slots)
                   ? std::bit_ceil(cfg_.max_slots)
                   : normalize_k(cfg_.slots)) {}

  ~basic_domain() { drain(); }

  /// Current number of slots (grows only in adaptive Hyaline-S).
  std::size_t slot_count() const { return slots_.size(); }

  /// RAII critical section: enter on construction, leave on destruction.
  class guard {
   public:
    /// Transparent enter: the slot is picked from a per-thread hint
    /// (threads never register — the paper's transparency property).
    /// With entry_burst set, the outermost guard on the thread owns the
    /// thread's burst presence (see config::entry_burst): it adopts a
    /// parked one, or enters and starts a new one. A guard nested inside
    /// an owner enters and leaves on its own.
    explicit guard(basic_domain& dom)
        : dom_(dom), builder_(&dom.builders().local()) {
      owner_ = dom_.cfg_.entry_burst != 0 &&
               builder_->presence != presence_state::held;
      if (owner_ && builder_->presence == presence_state::parked) {
        builder_->presence = presence_state::held;
        slot_ = builder_->presence_slot;
        handle_ = nullptr;  // a presence parks only on an empty list
        obs::emit(obs::event::guard_enter, slot_);
        return;
      }
      slot_ = dom_.choose_slot(smr::core::thread_hint());
      if (owner_) {
        builder_->presence = presence_state::held;
        builder_->presence_slot = slot_;
        builder_->burst_left = dom_.cfg_.entry_burst;
      }
      obs::emit(obs::event::guard_enter, slot_);
      handle_ = dom_.enter(slot_);
    }

    /// Explicit placement: `slot_hint` picks the slot (mod k); Hyaline
    /// supports any number of threads per slot, so a thread id, a random
    /// number, or anything else works (§3.2: "a thread chooses randomly or
    /// based on its ID"). White-box tests use this to stage interleavings
    /// deterministically.
    guard(basic_domain& dom, unsigned slot_hint)
        : dom_(dom), builder_(&dom.builders().local()) {
      slot_ = dom_.choose_slot(slot_hint);
      obs::emit(obs::event::guard_enter, slot_);
      handle_ = dom_.enter(slot_);
    }

    /// Leave, or (burst owner) park the presence: only while the burst
    /// lasts and the slot's list is empty. HPtr cannot go back to Null
    /// while this thread holds HRef, so an empty list here means it was
    /// empty at enter (a Null handle) and still is: leaving would free
    /// nothing.
    ~guard() {
      obs::emit(obs::event::guard_exit, slot_);
      if (owner_) {
        if (--builder_->burst_left != 0 &&
            dom_.slots_.at(slot_).head.snapshot().ptr == nullptr) {
          assert(handle_ == nullptr);
          builder_->presence = presence_state::parked;
          return;
        }
        builder_->presence = presence_state::none;
      }
      dom_.leave(slot_, handle_);
    }

    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    /// Acquire a pointer for safe traversal. Basic Hyaline: plain acquire
    /// load (no per-access cost — the paper's transparency/performance
    /// claim). Hyaline-S: the Fig. 5 deref loop, keeping this slot's
    /// access era in sync with the global era clock. The handle is the
    /// zero-cost wrapper: protection is guard-lifetime / era based.
    template <class T>
    smr::raw_handle<T> protect(const std::atomic<T*>& src) {
      if constexpr (!Robust) {
        return smr::raw_handle<T>(src.load(std::memory_order_acquire));
      } else {
        slot_rec& sl = dom_.slots_.at(slot_);
        return smr::raw_handle<T>(smr::core::protect_with_era(
            src, dom_.era(),
            // seq_cst: shared slot reservation (CAS-maxed by every thread on
            // the slot); reads stay in touch()'s total order so the validate
            // loop never accepts a stale reservation.
            sl.access_era.load(std::memory_order_seq_cst),
            [this, &sl](std::uint64_t e) { return dom_.touch(sl, e); }));
      }
    }

    /// Retire a node unlinked from the data structure.
    template <class T>
    void retire(T* n) { dom_.retire_into(*builder_, n); }

    /// §3.3 trimming: logically leave-then-enter without touching Head.
    /// Reclaims everything retired since this guard (or its last trim)
    /// started, while keeping the thread inside its critical section.
    void trim() {
      handle_ = dom_.trim(slot_, handle_);
    }

    unsigned slot() const { return static_cast<unsigned>(slot_); }

   private:
    basic_domain& dom_;
    std::size_t slot_;
    node* handle_;
    typename basic_domain::batch_builder* builder_;
    bool owner_ = false;  ///< holds the thread's burst presence
  };

  /// Burst-entry cleanup for the *calling thread*: leave its parked slot
  /// presence, so an idle thread pins nothing that arrives later. Call
  /// wherever a thread stops taking guards, with none live on it; no-op
  /// when burst entry is off or the thread has no builder here.
  void quiesce() {
    if (cfg_.entry_burst == 0) return;
    batch::builders().for_each_cached([this](batch_builder& b) {
      if (b.presence == presence_state::parked) leave_parked(b);
    });
  }

  /// Quiescent-state cleanup: leave every parked presence (idle threads
  /// that skipped quiesce(), or exited ones no successor took over), then
  /// flush every builder. Callable only when no guards are live anywhere
  /// (tests, shutdown). With HRef == 0 in every slot, each flushed batch
  /// is freed immediately (all k per-slot contributions arrive as Empty
  /// adjustments).
  void drain() {
    batch::builders().for_each([this](batch_builder& b) {
      if (b.presence == presence_state::parked) leave_parked(b);
    });
    batch::drain();
  }

  /// Introspection for tests: head tuple of a slot.
  head_val debug_head(std::size_t slot) { return slots_.at(slot).head.snapshot(); }
  /// Introspection for tests: access era / ack of a slot (Hyaline-S).
  std::uint64_t debug_access_era(std::size_t slot) {
    return slots_.at(slot).access_era.load(std::memory_order_relaxed);
  }
  std::int64_t debug_ack(std::size_t slot) {
    return slots_.at(slot).ack.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(cache_line_size) slot_rec {
    head_policy head{};
    std::atomic<std::uint64_t> access_era{0};  // Hyaline-S only
    std::atomic<std::int64_t> ack{0};          // Hyaline-S only
  };

  using batch_builder = typename batch::builder;

  /// Constructor-time validation (API v2): malformed configs fail loudly
  /// here instead of corrupting the Adjs arithmetic downstream.
  static config validated(config cfg) {
    if (cfg.slots != 0 && !std::has_single_bit(cfg.slots)) {
      throw std::invalid_argument(
          "hyaline::config: slots must be a power of two (the Adjs "
          "reference-count arithmetic requires k * Adjs == 0 mod 2^64)");
    }
    if (Robust && cfg.max_slots != 0 &&
        cfg.max_slots < normalize_k(cfg.slots)) {
      throw std::invalid_argument(
          "hyaline::config: max_slots must be >= slots (it caps the "
          "adaptive slot-directory growth of §4.3)");
    }
    if (Robust && !std::has_single_bit(cfg.era_freq)) {
      throw std::invalid_argument(
          "hyaline::config: era_freq must be a power of two");
    }
    return cfg;
  }

  static std::size_t normalize_k(std::size_t requested) {
    std::size_t k = requested ? requested : detail::default_slot_count();
    return std::bit_ceil(k);
  }

  static std::uint64_t adjs_of(const node* refs) { return refs->w2; }

  // --- core algorithm (Figure 3) --------------------------------------

  /// `hint` mod k, as a mask: k is always a power of two (validated(),
  /// and growth doubles it), so guard entry runs no divide.
  std::size_t choose_slot(unsigned hint) {
    const std::size_t k = slots_.size();
    std::size_t s = hint & (k - 1);
    if constexpr (Robust) {
      // Fig. 5 enter: hop past slots acked-out by stalled threads.
      for (std::size_t tries = 0; tries < k; ++tries) {
        if (slots_.at(s).ack.load(std::memory_order_relaxed) <
            cfg_.ack_threshold) {
          return s;
        }
        s = (s + 1) & (k - 1);
      }
      // Every slot looks stalled: grow the directory (§4.3) if allowed,
      // and land in the first k fresh slots, [k, 2k) (grown >= 2k).
      const std::size_t grown = slots_.grow();
      if (grown > k) return k + (hint & (k - 1));
      // Not adaptive: degrade gracefully (the pre-§4.3 capped behavior).
    }
    return s;
  }

  node* enter(std::size_t slot) {
    return slots_.at(slot).head.faa_enter().ptr;
  }

  /// End a parked burst presence (quiesce, drain). It parked on an empty
  /// list, so its handle is Null.
  void leave_parked(batch_builder& b) {
    b.presence = presence_state::none;
    leave(b.presence_slot, nullptr);
  }

  void leave(std::size_t slot, node* handle) {
    slot_rec& sl = slots_.at(slot);
    node* defer = nullptr;
    node* curr;
    node* next = nullptr;
    for (;;) {
      const head_val h = sl.head.snapshot();
      curr = h.ptr;
      if (curr != handle) {
        assert(curr != nullptr);
        next = batch::next_of(curr);
      }
      if (h.ref == 1) {
        const auto res = sl.head.cas_leave_last(h);
        if (res == leave_last_result::retry) continue;
        if (res == leave_last_result::nulled && curr != nullptr) {
          // We cut the list: treat Curr as if it were a predecessor that
          // will never be displaced (Fig. 3 lines 16-17).
          node* refs = batch::refs_of(curr);
          batch::adjust(refs, adjs_of(refs), defer);
        }
        // claimed (LL/SC only): the claiming enter inherits the list and
        // the final Adjs responsibility.
        break;
      }
      if (sl.head.cas_leave_dec(h)) break;
    }
    if (curr != handle) traverse(sl, next, handle, defer);
    batch::free_deferred(defer);
  }

  node* trim(std::size_t slot, node* handle) {
    slot_rec& sl = slots_.at(slot);
    const head_val h = sl.head.snapshot();  // do not alter Head
    node* curr = h.ptr;
    if (curr != handle) {
      node* defer = nullptr;
      traverse(sl, batch::next_of(curr), handle, defer);
      batch::free_deferred(defer);
    }
    return curr;
  }

  /// Insert the finished batch into every slot with active threads
  /// (Fig. 3 retire, plus the Fig. 5 era/Ack extensions).
  void finalize_batch(batch_builder& b) {
    const std::size_t k = slots_.size();
    const std::uint64_t adjs = detail::adjs_for(k);
    auto sealed = batch::seal(b, k, adjs);  // per-batch Adjs (§4.3)
    std::uint64_t empty = 0;
    bool do_adj = false;
    node* defer = nullptr;

    for (std::size_t i = 0; i < k; ++i) {
      slot_rec& sl = slots_.at(i);
      for (;;) {
        const head_val h = sl.head.snapshot();
        if (h.ref == 0 || sealed.predates(sl.access_era)) {
          empty += adjs;
          do_adj = true;
          break;
        }
        if (!sealed.hand_off(h.ptr, [&](node* carrier) {
              return sl.head.cas_retire(h, carrier);
            })) {
          continue;
        }
        if constexpr (Robust) {
          // seq_cst: Ack credit for the HRef snapshot just displaced; ordered
          // with the winning cas_retire so credits and debits balance.
          sl.ack.fetch_add(static_cast<std::int64_t>(h.ref),
                           std::memory_order_seq_cst);
        }
        if (h.ptr != nullptr) {
          // REF #2: adjust the displaced predecessor by its own batch's
          // Adjs plus the HRef snapshot.
          node* pred = batch::refs_of(h.ptr);
          batch::adjust(pred, adjs_of(pred) + h.ref, defer);
        }
        break;
      }
    }
    if (do_adj) batch::adjust(sealed.refs, empty, defer);  // REF #3
    batch::free_deferred(defer);
  }

  /// Fig. 3 traverse: walk the retirement sublist acquired between enter
  /// and leave (or trim), dropping one reference per batch. `start` is the
  /// successor of the head the caller read, and that head differs from
  /// `handle`: at least one batch arrived since the handle was taken.
  void traverse([[maybe_unused]] slot_rec& sl, node* start, node* handle,
                node*& defer) {
    [[maybe_unused]] const std::int64_t batches =
        batch::drop_refs(start, handle, defer);
    if constexpr (Robust) {
      // Ack balance, the one place leave() and trim() settle it: the
      // caller owes one acknowledgment per batch inserted since its handle
      // was taken (retire's FAA counted it for each). The walk covers
      // (head, handle], which has that many nodes when handle != Null (the
      // handle substitutes for the skipped head). With a Null handle there
      // is no substitute, so the debit adds the head's batch back. Without
      // it Acks on *active* slots drift upward, choose_slot() eventually
      // misclassifies them as stalled and hops threads into genuinely
      // stalled slots, un-staling their eras and unbounding memory.
      const std::int64_t owed = batches + (handle == nullptr ? 1 : 0);
      // seq_cst: Ack debit, read by choose_slot()'s stall heuristic; same
      // total-order argument as the credit in finalize_batch().
      sl.ack.fetch_sub(owed, std::memory_order_seq_cst);
    }
  }

  /// Fig. 5 touch: CAS-max of the slot's shared access era.
  std::uint64_t touch(slot_rec& sl, std::uint64_t era) {
    // seq_cst: CAS-max read of the shared reservation; must observe the
    // latest published era or the max could regress transiently.
    std::uint64_t access = sl.access_era.load(std::memory_order_seq_cst);
    while (access < era) {
      // seq_cst: era publication — pairs store-load with the retire-side
      // access_era scan, like every reservation publication in the repo.
      if (sl.access_era.compare_exchange_weak(access, era,
                                              std::memory_order_seq_cst)) {
        return era;
      }
    }
    return access;
  }

  const config cfg_;
  slot_directory<slot_rec> slots_;
};

/// Basic Hyaline with the packed single-word head (fastest on x86-64).
using domain = basic_domain<head_packed, false>;
/// Basic Hyaline with a true double-width (cmpxchg16b) head.
using domain_dw = basic_domain<head_dw, false>;
/// Basic Hyaline over the emulated LL/SC granule (§4.4 / Figure 7).
using domain_llsc = basic_domain<head_llsc, false>;

/// Robust Hyaline-S (birth eras + Acks; adaptive if cfg.max_slots > slots).
using domain_s = basic_domain<head_packed, true>;
using domain_s_llsc = basic_domain<head_llsc, true>;

}  // namespace hyaline
