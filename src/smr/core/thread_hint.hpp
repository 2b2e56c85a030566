// A small dense per-thread integer shared by every domain in the process,
// and the lowest-free id allocator it shares with the thread registry.
//
// Two users: the multi-list Hyaline variants place a thread on a slot by
// it (§3.2: "a thread chooses randomly or based on its ID"), and the
// counter cells of smr::stats and svc::shard_router (smr::cell_banks)
// pick the calling thread's cell by it. A hint is the lowest id free
// among live threads when the thread first asks, and the thread hands it
// back when it exits: no two live threads hold the same id, and ids stay
// dense however many threads a long-lived process starts and joins. That
// is what lets a counter cell have exactly one writer. A hint is
// process-wide; the per-domain records of EBR, IBR, HP, HE, Hyaline-1
// and the Hyaline family's batch builders (core/thread_registry.hpp) take
// their ids from a lowest_free_ids of their own. It sits below stats.hpp, which the
// thread registry itself includes.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

namespace hyaline::smr::core {

/// Hands out the lowest id not currently taken: ids given back wait in a
/// min-heap below count(), which only grows.
class lowest_free_ids {
 public:
  /// The lowest free id. When no id this large was handed out before,
  /// `fresh(id)` runs under the lock before count() admits it.
  template <class Fresh>
  unsigned take(Fresh&& fresh) {
    std::lock_guard<std::mutex> lk(mu_);
    if (returned_.empty()) {
      const unsigned id = count_.load(std::memory_order_relaxed);
      fresh(id);
      // seq_cst: a scan that reads the old count must precede, in the
      // single total order, every seq_cst store the new holder makes
      // through this id (see thread_registry::size()).
      count_.store(id + 1, std::memory_order_seq_cst);
      return id;
    }
    std::pop_heap(returned_.begin(), returned_.end(), std::greater<>{});
    const unsigned id = returned_.back();
    returned_.pop_back();
    return id;
  }

  unsigned take() {
    return take([](unsigned) {});
  }

  void give_back(unsigned id) {
    std::lock_guard<std::mutex> lk(mu_);
    returned_.push_back(id);
    std::push_heap(returned_.begin(), returned_.end(), std::greater<>{});
  }

  /// One past the highest id ever taken: the peak number held at once.
  unsigned count() const {
    // seq_cst: the scan-side half of the pairing in take().
    return count_.load(std::memory_order_seq_cst);
  }

 private:
  std::mutex mu_;
  std::vector<unsigned> returned_;
  std::atomic<unsigned> count_{0};
};

/// Set in the hint a thread reads after handing its id back: a
/// thread-local destructor that runs later still gets a hint, with the
/// same low bits (the same Hyaline slot), but out of every cell range.
inline constexpr unsigned kHintReturned = 1u << 31;

namespace detail {

inline constexpr unsigned kNoHint = ~0u;

/// The calling thread's hint; kNoHint until it first asks. Constant
/// initialized, so reading it is one thread-local load.
inline unsigned& hint_word() {
  thread_local constinit unsigned hint = kNoHint;
  return hint;
}

/// Never destroyed: a thread may hand its id back after static
/// destructors ran.
inline lowest_free_ids& hint_ids() {
  static lowest_free_ids* const ids = new lowest_free_ids;
  return *ids;
}

/// The calling thread's id, held until the thread exits. The allocator's
/// mutex orders everything the old holder wrote to its cells before the
/// next holder's first bump.
struct hint_lease {
  const unsigned id = hint_ids().take();

  hint_lease() { hint_word() = id; }
  ~hint_lease() {
    hint_word() = id | kHintReturned;
    hint_ids().give_back(id);
  }
};

[[gnu::noinline]] inline unsigned take_hint() {
  thread_local const hint_lease lease;
  return lease.id;
}

}  // namespace detail

/// The calling thread's id: the lowest one free among live threads at its
/// first call, the same for the rest of the thread's life, handed back at
/// exit. Read after that, the id with kHintReturned set.
inline unsigned thread_hint() {
  const unsigned h = detail::hint_word();
  return h != detail::kNoHint ? h : detail::take_hint();
}

}  // namespace hyaline::smr::core
