// The retirement batch the Hyaline family shares (paper §3.2, §2.4, §4.1).
//
// Hyaline/-S (smr/hyaline.hpp) and Hyaline-1/-1S (smr/hyaline1.hpp) derive
// from batch_layer: each thread's batch in progress, its seal (a short
// batch is padded with dummies, §2.4), the carrier hand-off into a slot
// list, a leaver's reference-drop walk and the deferred batch free (§4.1).
// The domain keeps its slot protocol, with its REF #2/#3 accounting
// (Hyaline: Adjs; Hyaline-1: Inserts), and provides slot_count(),
// finalize_batch(builder&) and cfg_.{batch_min, era_freq}.
//
// A thread's batch in progress lives in its builder, a record of the
// domain's thread_registry<builder> (core/thread_registry.hpp) that the
// thread claims through local() and hands back at exit. The next thread
// to claim the id takes the builder over as it stands: its partial batch
// and (Hyaline) a parked slot presence. So a domain holds one builder per
// thread alive at once, and a thread that exits without flush() leaves
// its partial batch to its successor rather than to drain(). The era
// clock ticks from the thread's allocation count in the domain's stats
// cell (smr::stats::on_alloc()), so on_alloc() claims no builder.
//
// Node header (§3.2: "each node keeps three variables irrespective of
// batch sizes and total number of slots"):
//   w0  carriers: Next of the slot list the node was inserted into; REFS
//       node: the batch's NRef counter, then its deferred-free link. Until
//       the batch is sealed, every node's birth era (robust variants;
//       "shares space with Next", Fig. 5 line 19).
//   w1  batch chain link; the REFS node is the chain head, so free_batch
//       walks the whole batch from it.
//   w2  carriers: the REFS node (bit 0 tags padding dummies); REFS node:
//       the word the domain seals in (Hyaline: the batch's Adjs).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/core/era_clock.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/protected_ptr.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr::core {

/// The three-word header every Hyaline-family node derives from (layout
/// above), plus the typed destroy thunk of the shared `reclaimable` base.
struct batch_node : reclaimable {
  std::atomic<std::uintptr_t> w0{0};
  batch_node* w1 = nullptr;
  std::uintptr_t w2 = 0;
};

/// No per-thread fields beyond the batch in progress.
struct no_thread_fields {};

/// The CRTP base (see above). `ThreadFields` joins the builder's cache
/// line (Hyaline's burst presence).
template <class Domain, bool Robust, class ThreadFields = no_thread_fields>
class batch_layer {
 public:
  using node = batch_node;

  /// Protection is guard-lifetime or era based: handles are raw pointers.
  template <class T>
  using protected_ptr = raw_handle<T>;

  batch_layer(const batch_layer&) = delete;
  batch_layer& operator=(const batch_layer&) = delete;

  smr::stats& counters() { return *stats_; }
  const smr::stats& counters() const { return *stats_; }

  /// max(batch_min, k+1): one carrier per slot plus the REFS node (§3.2).
  std::size_t batch_size() const {
    const std::size_t k = self().slot_count();
    return self().cfg_.batch_min > k + 1 ? self().cfg_.batch_min : k + 1;
  }

  /// Birth-era hook (Fig. 5 init_node). Call right after allocating any
  /// object that will be retired through this domain. Basic variants only
  /// count it (kept so data structures are scheme-agnostic).
  void on_alloc(node* n) {
    const std::uint64_t count = stats_->on_alloc();
    if constexpr (Robust) {
      era_.tick(count, self().cfg_.era_freq);
      // Audit(hyaline-birth-load): acquire, not seq_cst. A stale-low
      // birth era makes the node look older, so era-checking skips fewer
      // handoffs and the node is retained longer — conservative (same
      // argument as IBR/HE birth stamps).
      n->w0.store(era_.load(std::memory_order_acquire),
                  std::memory_order_relaxed);
    }
  }

  /// Finalize the calling thread's partially filled batch by padding it
  /// with dummy nodes (§2.4's finalization trick) and retiring it. After
  /// this, the thread is fully "off the hook" — it may exit immediately.
  /// A thread without a builder here has nothing to flush.
  void flush() {
    builders_.for_each_cached([this](builder& b) { flush(b); });
  }

  /// Quiescent-state cleanup: flush every thread's builder. Callable only
  /// when no guards are live anywhere (tests, shutdown).
  void drain() {
    builders_.for_each([this](builder& b) { flush(b); });
  }

  std::uint64_t debug_alloc_era() const {
    return era_.load(std::memory_order_relaxed);
  }

  /// Builders claimed so far: the most threads that held one at once.
  unsigned debug_builder_count() const { return builders_.size(); }

 protected:
  // Cache-line aligned: a registry record written on every retire, so no
  // two threads' builders share a line.
  struct alignas(cache_line_size) builder : ThreadFields {
    node* refs = nullptr;  // chain head == REFS node of the batch in progress
    std::size_t count = 0;
    std::uint64_t min_birth = ~std::uint64_t{0};
  };

  /// A sealed batch on its way into the slot lists.
  struct sealed {
    node* refs;               ///< the REFS node (chain head, NRef counter)
    node* carrier;            ///< the next carrier to hand off
    std::uint64_t min_birth;  ///< smallest birth era in the batch

    /// Fig. 5 retire: a slot whose access era predates every node in the
    /// batch holds no reference to it (robust variants only).
    bool predates(const std::atomic<std::uint64_t>& access_era) const {
      // seq_cst: Dekker pairing with protect()'s era publication — a
      // weaker read could miss a reservation made just before this scan
      // and skip a slot whose thread still needs the batch.
      return Robust && access_era.load(std::memory_order_seq_cst) < min_birth;
    }

    /// Link the next carrier to the slot list head `pred` and
    /// `publish(carrier)` (the slot CAS); false = retry with the same one.
    template <class Publish>
    bool hand_off(node* pred, Publish&& publish) {
      assert(carrier != nullptr && "batch must hold >= k carriers");
      // Read the batch-internal next BEFORE publishing this carrier: the
      // moment the slot CAS lands, concurrent leavers plus a later
      // retirer's REF #2 can drive the batch to zero and free it, so
      // carrier->w1 afterwards is a use-after-free read (same
      // read-before-releasing discipline as drop_refs()).
      node* const next = carrier->w1;
      set_next(carrier, pred);
      if (!publish(carrier)) return false;
      carrier = next;
      return true;
    }
  };

  batch_layer() = default;

  static node* next_of(const node* n) {
    return reinterpret_cast<node*>(n->w0.load(std::memory_order_acquire));
  }
  static void set_next(node* n, node* nx) {
    n->w0.store(reinterpret_cast<std::uintptr_t>(nx),
                std::memory_order_release);
  }
  static std::uint64_t birth_of(const node* n) {
    return n->w0.load(std::memory_order_relaxed);
  }
  static node* refs_of(const node* carrier) {
    return reinterpret_cast<node*>(carrier->w2 & ~std::uintptr_t{1});
  }
  static bool is_dummy(const node* carrier) { return carrier->w2 & 1; }

  /// The global allocation era clock (robust variants).
  const era_clock& era() const { return era_; }

  /// The builders: the calling thread's (local(), for_each_cached()) and
  /// every claimed one (for_each(), quiescent drains only).
  thread_registry<builder>& builders() { return builders_; }

  /// Retire `n` (capturing T's deleter) into the thread's batch; O(1).
  /// Every batch_size() retires the batch is finalized into the slot lists
  /// (amortized O(1) per retire, Theorem 3).
  template <class T>
  void retire_into(builder& b, T* n) {
    n->smr_dtor = dtor_thunk<T>();
    stats_->stamp_retire(n);
    obs::emit(obs::event::retire, reinterpret_cast<std::uintptr_t>(n));
    if constexpr (Robust) {
      const std::uint64_t era = birth_of(n);
      if (era < b.min_birth) b.min_birth = era;
    }
    if (b.refs == nullptr) {
      n->w1 = nullptr;  // becomes the REFS node / chain head
      b.refs = n;
    } else {
      n->w1 = b.refs->w1;
      b.refs->w1 = n;
    }
    if (++b.count >= batch_size()) self().finalize_batch(b);
  }

  void flush(builder& b) {
    if (b.refs != nullptr) self().finalize_batch(b);
  }

  /// Seal the batch for `slots` slots (padding it to slots+1 nodes) and
  /// reset the builder: NRef = 0, REFS w2 = `refs_word`.
  sealed seal(builder& b, std::size_t slots, std::uintptr_t refs_word) {
    // Short of slots+1 nodes after an explicit flush, or when the slot
    // count grew since the size check.
    while (b.count < slots + 1) {
      node* dummy = new node;
      dummy->w2 = 1;  // dummy tag; REFS pointer OR-ed in below
      dummy->w1 = b.refs->w1;
      b.refs->w1 = dummy;
      ++b.count;
    }
    obs::emit(obs::event::batch_finalize, b.count);
    stats_->events.on_finalize();
    sealed s{b.refs, b.refs->w1, b.min_birth};
    b.refs = nullptr;
    b.count = 0;
    b.min_birth = ~std::uint64_t{0};

    s.refs->w2 = refs_word;
    s.refs->w0.store(0, std::memory_order_relaxed);  // NRef = 0
    for (node* c = s.carrier; c != nullptr; c = c->w1) {
      c->w2 = reinterpret_cast<std::uintptr_t>(s.refs) | (c->w2 & 1);
    }
    return s;
  }

  /// Fig. 3 traverse's walk over (start, handle], or to the list's end:
  /// drop one reference per batch; returns how many were dropped.
  static std::int64_t drop_refs(node* start, node* handle, node*& defer) {
    std::int64_t dropped = 0;
    node* curr = start;
    while (curr != nullptr) {
      node* nx = next_of(curr);  // read before releasing our reference
      node* refs = refs_of(curr);
      ++dropped;
      const std::uint64_t old =
          refs->w0.fetch_add(~std::uint64_t{0}, std::memory_order_acq_rel);
      if (old == 1) push_deferred(defer, refs);
      if (curr == handle) break;
      curr = nx;
    }
    return dropped;
  }

  /// Fig. 3 adjust: wrapping add to the batch counter; the contributor
  /// that brings it to exactly zero owns deallocation.
  static void adjust(node* refs, std::uint64_t val, node*& defer) {
    const std::uint64_t old =
        refs->w0.fetch_add(val, std::memory_order_acq_rel);
    if (old + val == 0) push_deferred(defer, refs);
  }

  /// Deferred deallocation (§4.1): reaped batches are freed only after the
  /// traversal completes, recycling w0 of the REFS node as the list link.
  static void push_deferred(node*& defer, node* refs) {
    refs->w0.store(reinterpret_cast<std::uintptr_t>(defer),
                   std::memory_order_relaxed);
    defer = refs;
  }

  void free_deferred(node* defer) {
    while (defer != nullptr) {
      node* next = reinterpret_cast<node*>(
          defer->w0.load(std::memory_order_relaxed));
      free_batch(defer);
      defer = next;
    }
  }

  void free_batch(node* refs) {
    node* c = refs->w1;
    stats_->free_node(refs);
    while (c != nullptr) {
      node* nx = c->w1;
      if (is_dummy(c)) {
        delete c;  // padding dummy: a plain node, never user-retired
      } else {
        stats_->free_node(c);
      }
      c = nx;
    }
  }

 private:
  Domain& self() { return static_cast<Domain&>(*this); }
  const Domain& self() const { return static_cast<const Domain&>(*this); }

  padded_stats stats_;
  era_clock era_{1, stats_->events};
  thread_registry<builder> builders_{stats_->events};
};

}  // namespace hyaline::smr::core
