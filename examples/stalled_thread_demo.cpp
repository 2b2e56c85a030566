// Robustness demo: what one stalled thread does to each scheme.
//
// A thread enters, reads one node, and never leaves (think: preempted
// forever, or stuck in a signal handler). Under EBR the global epoch can
// no longer advance, so *all* reclamation stops and memory grows without
// bound. Under Hyaline-S the stalled thread only poisons its own slot:
// retiring threads skip slots with stale access eras, and enter() hops
// past slots whose Ack indicates a stalled occupant, so reclamation
// continues (§4.2 / Figure 10a).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "ds/michael_hashmap.hpp"
#include "smr/ebr.hpp"
#include "smr/hyaline.hpp"

namespace {

template <class D, class MakeDom>
void demo(const char* name, MakeDom make_dom) {
  auto dom = make_dom();
  hyaline::ds::michael_hashmap<D> map(*dom, 4096);

  std::atomic<bool> stop{false};
  std::atomic<bool> stalled_ready{false};

  // Prefill.
  {
    typename D::guard g(*dom);
    for (std::uint64_t k = 0; k < 4096; ++k) map.insert(g, k, k);
  }

  // The stalled thread: enters, touches a node, then blocks inside the
  // critical section until the demo ends.
  std::thread stalled([&] {
    typename D::guard g(*dom);
    map.contains(g, 7);
    stalled_ready.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!stalled_ready.load(std::memory_order_acquire)) {
  }

  // Two active workers churn inserts/removes for one second.
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      hyaline::xoshiro256 rng(t + 42);
      while (!stop.load(std::memory_order_acquire)) {
        typename D::guard g(*dom);
        const std::uint64_t k = rng.below(4096);
        if (rng.below(2) == 0) {
          map.insert(g, k, k);
        } else {
          map.remove(g, k);
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(1));
  const auto unreclaimed = dom->counters().unreclaimed();
  stop.store(true, std::memory_order_release);
  stalled.join();
  for (auto& th : workers) th.join();
  dom->drain();

  std::printf("%-10s unreclaimed after 1s with a stalled thread: %llu\n",
              name, static_cast<unsigned long long>(unreclaimed));
}

}  // namespace

int main() {
  std::puts("one stalled reader, two writers, 1 second of churn:");
  demo<hyaline::smr::ebr_domain>("Epoch", [] {
    return std::make_unique<hyaline::smr::ebr_domain>();
  });
  demo<hyaline::domain_s>("Hyaline-S", [] {
    return std::make_unique<hyaline::domain_s>(
        hyaline::config{.slots = 8, .max_slots = 64, .ack_threshold = 512});
  });
  std::puts("(Epoch grows without bound; Hyaline-S stays flat.)");
  return 0;
}
