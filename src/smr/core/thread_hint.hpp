// A small dense per-thread integer shared by every domain in the process.
//
// Two users: the multi-list Hyaline variants place a thread on a slot by
// it (§3.2: "a thread chooses randomly or based on its ID"), and the
// counter cells of smr::stats and svc::shard_router (smr::cell_banks)
// pick the calling thread's cell by it. A hint is the lowest id free
// among live threads when the thread first asks, and the thread hands it
// back when it exits: no two live threads hold the same id, and ids stay
// dense however many threads a long-lived process starts and joins. That
// is what lets a counter cell have exactly one writer. Neither user needs
// a capacity-bounded lease (core/thread_registry.hpp): any number of
// threads may share a slot, and hints past the cells share a second bank.
// It sits below stats.hpp, which the thread registry itself includes.
#pragma once

#include <algorithm>
#include <functional>
#include <mutex>
#include <vector>

namespace hyaline::smr::core {

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

/// Hands out the lowest free id: a min-heap of returned ids below `next_`.
class hint_ids {
 public:
  unsigned take() {
    std::lock_guard<std::mutex> lk(mu_);
    if (returned_.empty()) return next_++;
    std::pop_heap(returned_.begin(), returned_.end(), std::greater<>{});
    const unsigned id = returned_.back();
    returned_.pop_back();
    return id;
  }

  void give_back(unsigned id) {
    std::lock_guard<std::mutex> lk(mu_);
    returned_.push_back(id);
    std::push_heap(returned_.begin(), returned_.end(), std::greater<>{});
  }

  /// Never destroyed: a thread may hand its id back after static
  /// destructors ran.
  static hint_ids& instance() {
    static hint_ids* const ids = new hint_ids;
    return *ids;
  }

 private:
  std::mutex mu_;
  std::vector<unsigned> returned_;
  unsigned next_ = 0;
};

/// The calling thread's id, held until the thread exits. The mutex in
/// hint_ids orders everything the old holder wrote to its cells before
/// the next holder's first bump.
struct hint_lease {
  const unsigned id = hint_ids::instance().take();

  hint_lease() { hint_word() = id; }
  ~hint_lease() {
    hint_word() = id | kHintReturned;
    hint_ids::instance().give_back(id);
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
