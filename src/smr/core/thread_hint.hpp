// A small dense per-thread integer shared by every domain in the process.
//
// Two users: the multi-list Hyaline variants place a thread on a slot by
// it (§3.2: "a thread chooses randomly or based on its ID"), and
// smr::stats picks the calling thread's counter cell by it. Neither needs
// a capacity-bounded lease (core/thread_registry.hpp): any number of
// threads may share a slot or a cell. It sits below stats.hpp, which the
// thread registry itself includes.
#pragma once

#include <atomic>

namespace hyaline::smr::core {

/// Handed out in the order threads first ask, so threads started together
/// get consecutive hints.
inline unsigned thread_hint() {
  static std::atomic<unsigned> source{0};
  thread_local const unsigned hint =
      source.fetch_add(1, std::memory_order_relaxed);
  return hint;
}

}  // namespace hyaline::smr::core
