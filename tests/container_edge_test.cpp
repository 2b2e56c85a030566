// Container edge cases with full history checking through the oracle:
// empty-pop storms (consumers far outnumbering production), single-element
// contention (every thread fighting over one value), and interleaved
// push/pop from two threads. Each scenario runs the real workload driver
// with recording on, then must produce a linearizable history AND close
// its conservation ledger — the oracle checking the same runs the
// accounting does.
#include <gtest/gtest.h>

#include <string>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "ds/ms_queue.hpp"
#include "ds/treiber_stack.hpp"
#include "harness/workload.hpp"
#include "smr/ebr.hpp"
#include "smr/hazard_pointers.hpp"

namespace hyaline {
namespace {

struct scenario {
  unsigned producers;
  unsigned consumers;
  std::size_t prefill;
  unsigned duration_ms;
};

/// Drive `Q` over `D` with recording on; return the checker's verdict
/// after asserting the ledger closed. `empty_pops` reports how many pops
/// found nothing — scenarios that exist to generate empty pops assert on
/// it.
template <class D, template <class> class Q>
check::check_result run_checked(check::semantics sem, const scenario& sc,
                                std::size_t* empty_pops = nullptr) {
  D dom;
  check::history_recorder rec;
  harness::workload_config cfg;
  cfg.producers = sc.producers;
  cfg.consumers = sc.consumers;
  cfg.threads = sc.producers + sc.consumers;
  cfg.prefill = sc.prefill;
  cfg.duration_ms = sc.duration_ms;
  cfg.repeats = 1;
  cfg.history = &rec;
  check::check_result res;
  {
    Q<D> q(dom);
    const harness::workload_result r =
        harness::run_container_workload(dom, q, cfg);
    EXPECT_EQ(r.enqueued, r.dequeued + r.drained) << "ledger must close";
    auto h = rec.collect();
    if (empty_pops != nullptr) {
      *empty_pops = 0;
      for (const check::op_record& o : h) {
        if (o.kind == check::op_kind::pop && !o.ok) ++*empty_pops;
      }
    }
    res = check::check_history(sem, std::move(h), /*complete=*/true);
  }
  dom.drain();
  return res;
}

std::string why(const check::check_result& r) {
  return r.bad ? check::format_violation(*r.bad) : "";
}

TEST(ContainerEdge, EmptyPopStormOnQueue) {
  // One producer, three consumers, nothing prefilled: most pops find the
  // queue empty, exercising the empty-linearization path under
  // contention.
  std::size_t empties = 0;
  const auto r = run_checked<smr::ebr_domain, ds::ms_queue>(
      check::semantics::fifo, {1, 3, 0, 25}, &empties);
  EXPECT_TRUE(r.ok) << why(r);
  EXPECT_GT(empties, 0u) << "the storm should actually produce empty pops";
}

TEST(ContainerEdge, EmptyPopStormOnStack) {
  std::size_t empties = 0;
  const auto r = run_checked<smr::ebr_domain, ds::treiber_stack>(
      check::semantics::lifo, {1, 3, 0, 25}, &empties);
  EXPECT_TRUE(r.ok) << why(r);
  EXPECT_GT(empties, 0u);
}

TEST(ContainerEdge, PureConsumersOnEmptyQueue) {
  // No production at all: every recorded pop is empty and the history
  // must still check (and the ledger close at 0 = 0 + 0).
  const auto r = run_checked<smr::ebr_domain, ds::ms_queue>(
      check::semantics::fifo, {0, 4, 0, 10});
  EXPECT_TRUE(r.ok) << why(r);
}

TEST(ContainerEdge, SingleElementContentionQueue) {
  // One prefilled value, two producers versus two consumers: the queue
  // keeps flickering between empty and one element, the dummy handoff
  // path ms_queue documents as its protection-critical step.
  const auto r = run_checked<smr::ebr_domain, ds::ms_queue>(
      check::semantics::fifo, {2, 2, 1, 25});
  EXPECT_TRUE(r.ok) << why(r);
}

TEST(ContainerEdge, SingleElementContentionStackUnderHP) {
  // Same shape on the stack, under hazard pointers — the scheme whose
  // protection the skip-protect mutant deletes.
  const auto r = run_checked<smr::hp_domain, ds::treiber_stack>(
      check::semantics::lifo, {2, 2, 1, 25});
  EXPECT_TRUE(r.ok) << why(r);
}

TEST(ContainerEdge, InterleavedPushPopTwoThreadsQueue) {
  const auto r = run_checked<smr::hp_domain, ds::ms_queue>(
      check::semantics::fifo, {1, 1, 4, 25});
  EXPECT_TRUE(r.ok) << why(r);
}

TEST(ContainerEdge, InterleavedPushPopTwoThreadsStack) {
  const auto r = run_checked<smr::ebr_domain, ds::treiber_stack>(
      check::semantics::lifo, {1, 1, 4, 25});
  EXPECT_TRUE(r.ok) << why(r);
}

}  // namespace
}  // namespace hyaline
