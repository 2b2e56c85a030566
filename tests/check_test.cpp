// The oracle tested directly: hand-built histories with known verdicts
// drive the set/FIFO/LIFO checkers through every violation class and
// every deliberately-allowed ambiguity, and the --mutate self-test
// mutants run end-to-end to prove an injected reclamation bug cannot
// slip past the checker. Timestamps here are plain small integers — the
// checker only ever compares them, so synthetic histories exercise
// exactly the code real recordings do.
#include <gtest/gtest.h>

#include <vector>

#include "check/check_driver.hpp"
#include "check/history.hpp"
#include "check/linearize.hpp"
#include "check/mutants.hpp"
#include "ds/treiber_stack.hpp"
#include "harness/workload.hpp"
#include "smr/ebr.hpp"

namespace hyaline::check {
namespace {

op_record rec(std::uint64_t inv, std::uint64_t ret, op_kind kind,
              std::uint64_t key, bool ok, std::uint32_t tid = 0) {
  return {inv, ret, key, tid, kind, ok};
}

// ------------------------------------------------------------------ set --

TEST(SetChecker, SequentialHistoryPasses) {
  std::vector<op_record> h{
      rec(0, 1, op_kind::insert, 5, true),
      rec(2, 3, op_kind::contains, 5, true),
      rec(4, 5, op_kind::remove, 5, true),
      rec(6, 7, op_kind::contains, 5, false),
      rec(8, 9, op_kind::insert, 5, true),
  };
  const check_result r = check_history(semantics::set, h, false);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.keys, 1u);
  EXPECT_EQ(r.clusters, 5u);
}

TEST(SetChecker, StaleReadCaught) {
  // The key was removed, completely, before the contains began — a true
  // answer can only come from a freed node an ABA race resurrected.
  std::vector<op_record> h{
      rec(0, 1, op_kind::insert, 7, true),
      rec(2, 3, op_kind::remove, 7, true),
      rec(4, 5, op_kind::contains, 7, true),
  };
  const check_result r = check_history(semantics::set, h, false);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.bad->what.find("key 7"), std::string::npos);
  EXPECT_FALSE(format_violation(*r.bad).empty());
}

TEST(SetChecker, LostUpdateCaught) {
  // Two successful inserts of one key with no remove between them: the
  // first insert's node was lost.
  std::vector<op_record> h{
      rec(0, 1, op_kind::insert, 3, true),
      rec(2, 3, op_kind::insert, 3, true),
  };
  EXPECT_FALSE(check_history(semantics::set, h, false).ok);
}

TEST(SetChecker, ConcurrentOutcomeAmbiguityAllowed) {
  // Overlapping insert(ok)/insert(fail) — some order explains it.
  std::vector<op_record> h{
      rec(0, 10, op_kind::insert, 1, true),
      rec(5, 15, op_kind::insert, 1, false),
  };
  const check_result r = check_history(semantics::set, h, false);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.dfs_clusters, 1u);
}

TEST(SetChecker, DoubleSuccessfulRemoveInOneClusterCaught) {
  // From one present key, only one of two overlapping removes can win.
  std::vector<op_record> h{
      rec(0, 1, op_kind::insert, 9, true),
      rec(2, 10, op_kind::remove, 9, true),
      rec(3, 8, op_kind::remove, 9, true),
  };
  EXPECT_FALSE(check_history(semantics::set, h, false).ok);
}

TEST(SetChecker, FeasibleStateSetCarriedAcrossClusters) {
  // The overlapping remove(ok)/insert(ok) pair admits only the order
  // remove-then-insert (insert cannot succeed on a present key), so the
  // key is definitely present afterwards; the later contains(false) has
  // no explanation.
  std::vector<op_record> h{
      rec(0, 1, op_kind::insert, 2, true),
      rec(10, 20, op_kind::remove, 2, true),
      rec(12, 22, op_kind::insert, 2, true),
      rec(30, 31, op_kind::contains, 2, false),
  };
  EXPECT_FALSE(check_history(semantics::set, h, false).ok);
}

TEST(SetChecker, KeysCheckIndependently) {
  // A violation on one key is found even when other keys are busy and
  // clean.
  std::vector<op_record> h{
      rec(0, 1, op_kind::insert, 1, true),
      rec(2, 3, op_kind::contains, 1, true),
      rec(0, 1, op_kind::contains, 2, true),  // key 2 never inserted
  };
  const check_result r = check_history(semantics::set, h, false);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.bad->what.find("key 2"), std::string::npos);
}

// ----------------------------------------------------------- containers --

TEST(ContainerChecker, DuplicatePopCaught) {
  std::vector<op_record> h{
      rec(0, 1, op_kind::push, 7, true),
      rec(2, 3, op_kind::pop, 7, true),
      rec(4, 5, op_kind::pop, 7, true),
  };
  const check_result r = check_history(semantics::lifo, h, false);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.bad->what.find("popped twice"), std::string::npos);
}

TEST(ContainerChecker, InventedValueCaught) {
  std::vector<op_record> h{rec(0, 1, op_kind::pop, 99, true)};
  EXPECT_FALSE(check_history(semantics::fifo, h, false).ok);
}

TEST(ContainerChecker, PopBeforePushCaught) {
  std::vector<op_record> h{
      rec(4, 5, op_kind::push, 7, true),
      rec(0, 1, op_kind::pop, 7, true),
  };
  EXPECT_FALSE(check_history(semantics::fifo, h, false).ok);
}

TEST(ContainerChecker, LostValueNeedsACompleteHistory) {
  std::vector<op_record> h{rec(0, 1, op_kind::push, 7, true)};
  EXPECT_TRUE(check_history(semantics::fifo, h, false).ok)
      << "an unpopped value is fine while the container may still hold it";
  EXPECT_FALSE(check_history(semantics::fifo, h, true).ok)
      << "but not after a drain emptied the container";
}

TEST(FifoChecker, OvertakeCaught) {
  // a pushed entirely before b, b popped entirely before a.
  std::vector<op_record> h{
      rec(0, 1, op_kind::push, 1, true),
      rec(2, 3, op_kind::push, 2, true),
      rec(4, 5, op_kind::pop, 2, true),
      rec(6, 7, op_kind::pop, 1, true),
  };
  const check_result r = check_history(semantics::fifo, h, true);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.bad->what.find("FIFO"), std::string::npos);
  EXPECT_EQ(r.bad->window.size(), 4u);
}

TEST(FifoChecker, ConcurrentPushesMayPopEitherWay) {
  // The pushes overlap, so no arrival order is fixed.
  std::vector<op_record> h{
      rec(0, 10, op_kind::push, 1, true),
      rec(2, 3, op_kind::push, 2, true),
      rec(11, 12, op_kind::pop, 2, true),
      rec(13, 14, op_kind::pop, 1, true),
  };
  EXPECT_TRUE(check_history(semantics::fifo, h, true).ok);
}

TEST(LifoChecker, StackOrderViolationCaught) {
  // push(a) ⊏ push(b) ⊏ pop(a) ⊏ pop(b): a was under b, yet left first.
  std::vector<op_record> h{
      rec(0, 1, op_kind::push, 1, true),
      rec(2, 3, op_kind::push, 2, true),
      rec(4, 5, op_kind::pop, 1, true),
      rec(6, 7, op_kind::pop, 2, true),
  };
  const check_result r = check_history(semantics::lifo, h, true);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.bad->what.find("LIFO"), std::string::npos);
}

TEST(LifoChecker, ProperStackOrderPasses) {
  std::vector<op_record> h{
      rec(0, 1, op_kind::push, 1, true),
      rec(2, 3, op_kind::push, 2, true),
      rec(4, 5, op_kind::pop, 2, true),
      rec(6, 7, op_kind::push, 3, true),
      rec(8, 9, op_kind::pop, 3, true),
      rec(10, 11, op_kind::pop, 1, true),
  };
  EXPECT_TRUE(check_history(semantics::lifo, h, true).ok);
}

TEST(LifoChecker, PopBeforeLaterPushIsFine) {
  // a popped before b was ever pushed — pop(a) linearizes before
  // push(b); nothing stacks them.
  std::vector<op_record> h{
      rec(0, 1, op_kind::push, 1, true),
      rec(2, 3, op_kind::pop, 1, true),
      rec(4, 5, op_kind::push, 2, true),
      rec(6, 7, op_kind::pop, 2, true),
  };
  EXPECT_TRUE(check_history(semantics::lifo, h, true).ok);
}

TEST(ContainerChecker, ImpossibleEmptyPopCaught) {
  // The value was pushed, completely, before the empty pop began, and
  // was not popped until after it returned: the container was provably
  // non-empty for the pop's whole interval.
  std::vector<op_record> h{
      rec(0, 1, op_kind::push, 7, true),
      rec(2, 3, op_kind::pop, 0, false),
      rec(4, 5, op_kind::pop, 7, true),
  };
  const check_result r = check_history(semantics::fifo, h, true);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.bad->what.find("empty pop"), std::string::npos);
}

TEST(ContainerChecker, EmptyPopConcurrentWithPushIsFine) {
  std::vector<op_record> h{
      rec(0, 10, op_kind::push, 7, true),
      rec(1, 2, op_kind::pop, 0, false),  // push still in flight
      rec(11, 12, op_kind::pop, 7, true),
  };
  EXPECT_TRUE(check_history(semantics::fifo, h, true).ok);
}

// ------------------------------------------------------- mutation mode --

/// Run one mutant under the real container workload driver with history
/// recording, exactly as `check --mutate` does.
template <class Mutant>
check_result run_mutant(semantics sem) {
  smr::ebr_domain dom;
  history_recorder recder;
  harness::workload_config cfg;
  cfg.producers = 2;
  cfg.consumers = 2;
  cfg.threads = 4;
  cfg.duration_ms = 60;
  cfg.prefill = 8;
  cfg.repeats = 1;
  cfg.history = &recder;
  Mutant m(dom);
  harness::run_container_workload(dom, m, cfg);
  return check_history(sem, recder.collect(), /*complete=*/true);
}

TEST(MutationMode, SkipProtectIsCaught) {
  const check_result r =
      run_mutant<mutant_stack<smr::ebr_domain>>(semantics::lifo);
  EXPECT_FALSE(r.ok) << "the oracle missed an unprotected Treiber pop over "
                     << r.ops << " recorded ops";
}

TEST(MutationMode, DropValidateIsCaught) {
  const check_result r =
      run_mutant<mutant_queue<smr::ebr_domain>>(semantics::fifo);
  EXPECT_FALSE(r.ok) << "the oracle missed an unvalidated MS dequeue over "
                     << r.ops << " recorded ops";
}

TEST(MutationMode, HealthyContainersPassTheSameWorkload) {
  // The control: the real structures under the identical workload shape
  // produce clean histories — the mutants' violations come from the
  // mutations, not from the harness or the checker.
  smr::ebr_domain dom;
  history_recorder recder;
  harness::workload_config cfg;
  cfg.producers = 2;
  cfg.consumers = 2;
  cfg.threads = 4;
  cfg.duration_ms = 30;
  cfg.prefill = 8;
  cfg.repeats = 1;
  cfg.history = &recder;
  ds::treiber_stack<smr::ebr_domain> st(dom);
  harness::run_container_workload(dom, st, cfg);
  const check_result r =
      check_history(semantics::lifo, recder.collect(), /*complete=*/true);
  EXPECT_TRUE(r.ok) << (r.bad ? r.bad->what : "");
}

}  // namespace
}  // namespace hyaline::check
