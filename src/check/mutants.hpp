// Correctness oracle, part 3: self-test mutants (--mutate).
//
// Each mutant is a container with exactly one protection step deliberately
// removed, paired with *immediate* node reuse through a shared freelist —
// the reuse an SMR grace period exists to prevent. Running one under the
// history recorder must make the checker report a violation; if it does
// not, the oracle itself is broken. Two mutations, each deleting the step
// its host structure's comments call load-bearing:
//
//   skip-protect   — Treiber stack whose pop reads the head raw instead of
//                    protecting it. The classic ABA: a competitor pops the
//                    head, pops its successor, and re-pushes the same node
//                    (immediately reused) before our CAS, which then
//                    resurrects the popped successor — values duplicate
//                    and vanish.
//   drop-validate  — Michael–Scott queue whose dequeue keeps both
//                    protections but drops the head_ re-validation that
//                    proves the protected successor has not already been
//                    dequeued and reused; the stale CAS teleports the head
//                    onto a reused node and the value read lands on it.
//
// The race is made *deterministic* instead of hoped-for — an ill-timed
// preemption strikes rarely, and on a single-CPU box a spinning window
// never lets the adversary run at all. Every 4th pop arms a cooperative
// trap on its stale (node, successor) pair and sleeps (surrendering the
// core); when a competitor re-links the trapped node with a *different*
// successor — the node has been popped, reused, and re-pushed, so the
// sleeper's pair is now poison — the sleeper's unvalidated CAS lands
// against that head: the queue's competitor freezes the other threads and
// wakes the sleeper; the stack's runs the sleeper's CAS itself, back to
// back with its poisoning push, inside the sleeper's recorded pop (a
// woken sleeper lost that race to competitors already past the op-entry
// gate often enough, on a loaded host, to spend every spring of a run).
// The interleaving executed is exactly the one the deleted protection
// step exists to survive; the trap merely chooses the resume moment
// adversarially instead of leaving it to the scheduler.
//
// Safety engineering, since a mutated lock-free structure can corrupt its
// own links arbitrarily: every node is owned by a pool for the
// structure's lifetime (teardown frees the pool and never walks the
// possibly-cyclic list), reused value/next fields are atomics (no UB from
// the racing accesses the mutation invites), a pop budget (pops ≤ pushes)
// bounds duplicate storms so drains terminate even on a self-linked list,
// and every wait — trap, freeze, backpressure — is bounded, so quiescent
// phases cannot hang.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/align.hpp"
#include "smr/domain.hpp"

namespace hyaline::check {

namespace detail {

/// Node pool with immediate reuse: recycled nodes are handed out before
/// fresh ones, so a just-popped node reappears with a new value as fast
/// as possible (the adversarial allocator a grace period defends
/// against). Recycling alternates which end of the freelist a node lands
/// on: containers retire neighbours consecutively, and an order-keeping
/// pool would re-link a trapped (node, successor) pair in its original
/// adjacency on every cycle — silently healing the stale read the trap
/// is trying to poison. Owns every node it ever created; frees them all
/// at destruction.
template <class Node>
class reuse_pool {
 public:
  Node* take() {
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.empty()) {
      owned_.push_back(std::make_unique<Node>());
      return owned_.back().get();
    }
    Node* n = free_.front();
    free_.erase(free_.begin());
    return n;
  }

  void recycle(Node* n) {
    std::lock_guard<std::mutex> lk(mu_);
    // Rotating insertion point: consecutive retirees scatter across the
    // freelist instead of keeping their retirement order.
    const std::size_t pos = (++recycled_ * 7) % (free_.size() + 1);
    free_.insert(free_.begin() + static_cast<std::ptrdiff_t>(pos), n);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Node>> owned_;
  std::vector<Node*> free_;
  std::uint64_t recycled_ = 0;
};

/// The cooperative trap (see the header comment). One reader at a time
/// arms it on the (node, successor) pair it read without protection; the
/// competitor that re-links the node with a different successor claims
/// it and springs it — for the queue by freezing everyone else and waking
/// the reader, for the stack by running the reader's stale CAS itself.
template <class Node>
class stale_trap {
 public:
  /// Op-entry gate for every thread not currently mid-trap: while the
  /// world is frozen for the reader's CAS, hold off. Bounded (~20ms) so
  /// an abandoned freeze cannot deadlock teardown.
  void obey() {
    for (int i = 0;
         i < 4000 && frozen_.load(std::memory_order_acquire) != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(5));
    }
  }

  /// Reader: try to arm on the pair just read. False if another reader
  /// holds the trap (proceed without stalling).
  bool arm(Node* node, Node* succ) {
    Node* expected = nullptr;
    if (!node_.compare_exchange_strong(expected, node,
                                       std::memory_order_acq_rel)) {
      return false;
    }
    succ_.store(succ, std::memory_order_release);
    return true;
  }

  /// Reader: sleep until sprung or the ~5ms bound expires. Expiry
  /// abandons the trap — the CAS is benign then, and re-arming soon beats
  /// waiting long — unless a competitor already claimed it: that spring
  /// is moments away, so it gets a longer (still bounded) wait.
  void await() {
    for (int spin = 0; spin < 100 && !sprung(); ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (sprung() || !claimed_.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    for (int spin = 0; spin < 400 && !sprung(); ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Stack reader, after await(): true if a competitor ran the stale CAS
  /// on the reader's behalf, with its outcome in *won.
  bool handed_over(bool* won) const {
    if (!sprung()) return false;
    *won = won_.load(std::memory_order_relaxed);
    return true;
  }

  /// Reader: release the trap and thaw the world. Always pairs with a
  /// successful arm(), after the CAS.
  void disarm() {
    // seq_cst: ordered before the claim release below, for claim()'s
    // re-check of node_.
    node_.store(nullptr, std::memory_order_seq_cst);
    succ_.store(nullptr, std::memory_order_release);
    sprung_.store(false, std::memory_order_release);
    frozen_.store(0, std::memory_order_release);
    // seq_cst: see above.
    claimed_.store(false, std::memory_order_seq_cst);
  }

  /// Queue competitor: `node` was just re-linked with successor `succ`.
  /// If that poisons the trapped pair, freeze the world and wake the
  /// reader.
  void maybe_spring(const Node* node, const Node* succ) {
    if (claim(node, succ) == nullptr) return;
    frozen_.store(1, std::memory_order_release);
    sprung_.store(true, std::memory_order_release);
  }

  /// Stack competitor: `node` just went live in front of `succ`. If that
  /// poisons the trapped pair, run the reader's stale CAS now —
  /// `cas(trapped successor)`, before anyone can move the head — and hand
  /// the reader its outcome.
  template <class Cas>
  void spring_with(const Node* node, const Node* succ, Cas&& cas) {
    Node* const trapped = claim(node, succ);
    if (trapped == nullptr) return;
    won_.store(cas(trapped), std::memory_order_relaxed);
    sprung_.store(true, std::memory_order_release);
  }

 private:
  bool sprung() const { return sprung_.load(std::memory_order_acquire); }

  /// `node` re-linked with successor `succ` makes the trapped pair poison
  /// when it is the trapped node and its successor is a *different live
  /// node*. A null successor is not poison yet: the FIFO pool recycles
  /// neighbours in order, so the old successor itself is often the very
  /// next node linked behind `node`, silently healing the pair before the
  /// reader wakes; a non-null different successor can never heal (a set
  /// next edge is immutable in both containers until the node recycles).
  /// A poisoned pair is taken through `claimed_`, the arbiter between a
  /// spring and the reader giving up. Returns the trapped successor, or
  /// null if not claimed.
  Node* claim(const Node* node, const Node* succ) {
    Node* const trapped = succ_.load(std::memory_order_acquire);
    if (succ == nullptr || trapped == nullptr || succ == trapped ||
        node != node_.load(std::memory_order_acquire) ||
        // seq_cst: pairs with disarm()'s node_/claimed_ stores.
        claimed_.exchange(true, std::memory_order_seq_cst)) {
      return nullptr;
    }
    // seq_cst: the reader may have disarmed between the checks above and
    // the exchange (disarm clears node_, then the claim); a claim on a
    // disarmed trap belongs to nobody.
    if (node_.load(std::memory_order_seq_cst) != node) {
      claimed_.store(false, std::memory_order_release);
      return nullptr;
    }
    return trapped;
  }

  std::atomic<Node*> node_{nullptr};
  std::atomic<Node*> succ_{nullptr};
  std::atomic<bool> claimed_{false};
  std::atomic<bool> sprung_{false};
  std::atomic<bool> won_{false};  ///< outcome of a handed-over CAS
  std::atomic<int> frozen_{0};
};

/// True on every 4th call per thread: the pops that try to arm the trap
/// (the trap is exclusive, so dense attempts cost nothing when it is
/// taken and keep it re-armed the moment it frees).
inline bool nth_pop() {
  thread_local std::uint64_t n = 0;
  return ++n % 4 == 0;
}

/// Backpressure: wait (bounded, so a run whose consumers already stopped
/// cannot deadlock shutdown) while more than ~32 values are in flight,
/// keeping reused nodes cycling through the structure's hot end. Signed
/// difference: concurrent pops can momentarily drive pops past pushes.
inline void wait_for_room(const std::atomic<std::uint64_t>& pushes,
                          const std::atomic<std::uint64_t>& pops) {
  for (int i = 0;
       i < 2000 && static_cast<std::int64_t>(
                       pushes.load(std::memory_order_relaxed) -
                       pops.load(std::memory_order_relaxed)) > 32;
       ++i) {
    std::this_thread::yield();
  }
}

}  // namespace detail

/// Treiber stack with the skip-protect mutation (see the header comment).
template <class D>
class mutant_stack {
 public:
  static_assert(smr::Domain<D>);
  using guard = typename D::guard;

  explicit mutant_stack(D&) {}

  void push(guard&, std::uint64_t value) {
    detail::wait_for_room(pushes_, pops_);
    snode* fresh = pool_.take();
    fresh->value.store(value, std::memory_order_relaxed);
    snode* head = head_.load(std::memory_order_acquire);
    for (;;) {
      fresh->next.store(head, std::memory_order_relaxed);
      // seq_cst: mutant mirrors treiber_stack's push linearization CAS.
      if (head_.compare_exchange_weak(head, fresh,
                                      std::memory_order_seq_cst)) {
        pushes_.fetch_add(1, std::memory_order_relaxed);
        // The node just went live on top with successor `head`; if a
        // sleeping reader trapped it with a different successor, its
        // stale CAS runs now.
        trap_.spring_with(fresh, head, [&](snode* trapped) {
          snode* expected = fresh;
          // seq_cst: the trapped reader's pop linearization CAS.
          return head_.compare_exchange_strong(expected, trapped,
                                               std::memory_order_seq_cst);
        });
        return;
      }
    }
  }

  bool try_pop(guard&, std::uint64_t& out) {
    for (int attempts = 0; attempts < 4096; ++attempts) {
      // Pop budget: more pops than pushes is definitionally a duplicate
      // storm already on record; stop feeding it so drains terminate.
      if (pops_.load(std::memory_order_relaxed) >=
          pushes_.load(std::memory_order_relaxed)) {
        return false;
      }
      // MUTATION skip-protect: the head is read raw — no hazard
      // published, no validation — so the competitor may pop, reuse, and
      // re-push it (or its successor) between these loads and the CAS.
      snode* top = head_.load(std::memory_order_acquire);
      if (top == nullptr) return false;
      snode* next = top->next.load(std::memory_order_acquire);
      const bool trapped =
          detail::nth_pop() && trap_.arm(top, next);
      if (trapped) trap_.await();
      bool won = false;
      if (!trapped || !trap_.handed_over(&won)) {
        snode* expected = top;
        // seq_cst: mutant mirrors treiber_stack's pop linearization CAS.
        won = head_.compare_exchange_strong(expected, next,
                                            std::memory_order_seq_cst);
      }
      if (trapped) trap_.disarm();
      if (won) {
        out = top->value.load(std::memory_order_relaxed);
        pops_.fetch_add(1, std::memory_order_relaxed);
        pool_.recycle(top);  // immediate reuse: no grace period
        return true;
      }
    }
    return false;
  }

 private:
  struct snode {
    std::atomic<std::uint64_t> value{0};
    std::atomic<snode*> next{nullptr};
  };

  detail::reuse_pool<snode> pool_;
  detail::stale_trap<snode> trap_;
  alignas(cache_line_size) std::atomic<snode*> head_{nullptr};
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> pops_{0};
};

/// Michael–Scott queue with the drop-validate mutation (see the header
/// comment). Protection is still taken through the real guard; only the
/// re-validation is gone.
template <class D>
class mutant_queue {
 public:
  static_assert(smr::Domain<D>);
  static_assert(smr::max_hazards_v<D> >= 2);
  using guard = typename D::guard;

  explicit mutant_queue(D& dom) : dom_(dom) {
    qnode* dummy = alloc(0);
    head_.store(dummy, std::memory_order_relaxed);
    tail_.store(dummy, std::memory_order_relaxed);
  }

  void push(guard& g, std::uint64_t value) {
    trap_.obey();
    detail::wait_for_room(pushes_, pops_);
    qnode* fresh = alloc(value);
    for (int attempts = 0; attempts < 4096; ++attempts) {
      handle t = g.protect(tail_);
      qnode* tail = t.get();
      qnode* next = tail->next.load(std::memory_order_acquire);
      // seq_cst: mutant mirrors ms_queue's validating tail re-read.
      if (tail != tail_.load(std::memory_order_seq_cst)) continue;
      if (next != nullptr) {
        if (next == tail) break;  // mutation-made self-link; bail out
        // seq_cst: mutant mirrors ms_queue's helping tail swing.
        tail_.compare_exchange_strong(tail, next,
                                      std::memory_order_seq_cst);
        continue;
      }
      qnode* expected = nullptr;
      // seq_cst: mutant mirrors ms_queue's enqueue linearization CAS.
      if (tail->next.compare_exchange_strong(expected, fresh,
                                             std::memory_order_seq_cst)) {
        // seq_cst: mutant mirrors ms_queue's post-link tail swing.
        tail_.compare_exchange_strong(tail, fresh,
                                      std::memory_order_seq_cst);
        pushes_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    // The tail is corrupted beyond linking. Count the push anyway: the
    // value is on record as pushed and will be reported lost, and the pop
    // budget stays conservative.
    pushes_.fetch_add(1, std::memory_order_relaxed);
  }

  bool try_pop(guard& g, std::uint64_t& out) {
    trap_.obey();
    // Depth gate: hold pops (bounded, so the quiescent drain keeps
    // moving) until ≥8 values are in flight. On a drained ring a node
    // re-becomes the dummy with its next edge still null — nothing for
    // the trap to poison — and the successor that eventually arrives is
    // too often the recycled original, healing the pair (maybe_spring).
    for (int i = 0;
         i < 16 && static_cast<std::int64_t>(
                       pushes_.load(std::memory_order_relaxed) -
                       pops_.load(std::memory_order_relaxed)) < 8;
         ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (int attempts = 0; attempts < 4096; ++attempts) {
      if (pops_.load(std::memory_order_relaxed) >=
          pushes_.load(std::memory_order_relaxed)) {
        return false;
      }
      handle h = g.protect(head_);
      qnode* head = h.get();
      qnode* tail = tail_.load(std::memory_order_acquire);
      handle nh = g.protect(head->next);
      qnode* next = nh.get();
      // MUTATION drop-validate: the `head == head_` re-check — the step
      // ms_queue's comments call load-bearing, the only proof that
      // `next` has not already been dequeued, retired, and reused — is
      // gone; the trap sleeps here until the dummy has been retired,
      // reused, and walked back to the head with a different successor.
      const bool trapped =
          detail::nth_pop() && next != nullptr && trap_.arm(head, next);
      if (trapped) trap_.await();
      if (next == nullptr) {
        if (trapped) trap_.disarm();
        return false;
      }
      if (head == tail) {
        if (trapped) trap_.disarm();
        if (next == tail) return false;  // self-link; report empty
        // seq_cst: mutant mirrors ms_queue's helping tail swing.
        tail_.compare_exchange_strong(tail, next,
                                      std::memory_order_seq_cst);
        continue;
      }
      out = next->value.load(std::memory_order_relaxed);
      qnode* expected = head;
      // seq_cst: mutant mirrors ms_queue's dequeue linearization CAS.
      const bool won = head_.compare_exchange_strong(
          expected, next, std::memory_order_seq_cst);
      if (trapped) trap_.disarm();
      if (won) {
        pops_.fetch_add(1, std::memory_order_relaxed);
        // The winner's successor just became the dummy: if a sleeping
        // reader trapped this node with a different successor (the node
        // has been recycled through the tail since), spring.
        trap_.maybe_spring(next,
                           next->next.load(std::memory_order_acquire));
        pool_.recycle(head);  // immediate reuse: no grace period
        return true;
      }
    }
    return false;
  }

 private:
  struct qnode : D::node {
    std::atomic<std::uint64_t> value{0};
    std::atomic<qnode*> next{nullptr};
  };

  using handle = typename D::template protected_ptr<qnode>;

  qnode* alloc(std::uint64_t value) {
    qnode* n = pool_.take();
    n->value.store(value, std::memory_order_relaxed);
    n->next.store(nullptr, std::memory_order_relaxed);
    dom_.on_alloc(n);
    return n;
  }

  D& dom_;
  detail::reuse_pool<qnode> pool_;
  detail::stale_trap<qnode> trap_;
  alignas(cache_line_size) std::atomic<qnode*> head_{nullptr};
  alignas(cache_line_size) std::atomic<qnode*> tail_{nullptr};
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> pops_{0};
};

}  // namespace hyaline::check
