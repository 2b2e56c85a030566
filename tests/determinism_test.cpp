// The --seed contract, made a guarantee: with an operation budget
// (workload_config::op_limit) a single-threaded run is a pure function of
// its seed — every repetition performs exactly op_limit operations, and
// the recorded history (kind, key, result per op, in order) is identical
// across runs. A time-based stop cannot promise that (it cuts the op
// stream wherever the clock lands); the budget removes the clock from the
// picture, which is what lets this test compare runs byte-for-byte.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "harness/registry.hpp"
#include "obs/trace.hpp"

namespace hyaline {
namespace {

using op_sig = std::tuple<check::op_kind, std::uint64_t, bool>;

struct run_out {
  std::uint64_t total_ops = 0;
  std::vector<op_sig> history;
};

run_out one_run(const char* scheme, const char* structure,
                std::uint64_t seed, bool use_trim = false) {
  const auto& reg = harness::scheme_registry::instance();
  harness::runner_fn run = reg.runner(scheme, structure);
  EXPECT_NE(run, nullptr);
  check::history_recorder rec;
  harness::workload_config cfg;
  cfg.threads = 1;
  cfg.repeats = 2;
  cfg.op_limit = 20000;
  // Upper bound only: the driver returns as soon as the budget is spent.
  cfg.duration_ms = 10000;
  cfg.key_range = 512;
  cfg.prefill = 128;
  cfg.seed = seed;
  cfg.use_trim = use_trim;
  cfg.history = &rec;
  harness::scheme_params p;
  p.slot_threads = 4;
  const harness::workload_result r = run(p, cfg);
  run_out out;
  out.total_ops = r.total_ops;
  for (const check::op_record& o : rec.collect()) {
    out.history.emplace_back(o.kind, o.key, o.ok);
  }
  return out;
}

/// FNV-1a-64 over the 8 little-endian bytes of each record's kind, key
/// and ok, in collect() order: a compact fingerprint of an op stream.
std::uint64_t digest(const std::vector<op_sig>& history) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [kind, key, ok] : history) {
    mix(static_cast<std::uint64_t>(kind));
    mix(key);
    mix(ok ? 1 : 0);
  }
  return h;
}

// Golden digests: the budgeted single-thread op streams pinned by value,
// not only run-against-run. A refactor of the workload loops that changes
// which op a seed draws, the order of prefill/worker/drain records, or the
// container token scheme moves these and must say why.
TEST(SeededDeterminism, GoldenSetStream) {
  EXPECT_EQ(digest(one_run("Epoch", "hashmap", 0xfeed).history),
            0x345598483f713c33ULL);
}

TEST(SeededDeterminism, GoldenTrimStreamReplaysTheSetStream) {
  // One guard held across many ops with trim() in between draws exactly
  // the ops the leave+enter loop draws.
  EXPECT_EQ(digest(one_run("Hyaline", "hashmap", 0xfeed, true).history),
            0x345598483f713c33ULL);
}

TEST(SeededDeterminism, GoldenContainerStream) {
  // threads == 1 is a lone producer: 2 x 20000 pushes after the prefill,
  // then the quiescent drain pops everything (and one empty pop).
  const run_out r = one_run("Epoch", "msqueue", 0xfeed);
  EXPECT_EQ(r.total_ops, 2u * 20000u);
  EXPECT_EQ(digest(r.history), 0xfc732d5a7c921e81ULL);
}

TEST(SeededDeterminism, SameSeedSameOpsColumnAndSameHistory) {
  const run_out a = one_run("Epoch", "hashmap", 0xfeed);
  const run_out b = one_run("Epoch", "hashmap", 0xfeed);
  // Each of the 2 repetitions retires exactly its 20000-op budget...
  EXPECT_EQ(a.total_ops, 2u * 20000u);
  // ...and the per-rep ops columns (and everything else derived from the
  // op stream) match because the streams themselves are identical.
  EXPECT_EQ(a.total_ops, b.total_ops);
  ASSERT_EQ(a.history.size(), b.history.size());
  EXPECT_TRUE(a.history == b.history)
      << "same seed, same config must replay the identical op stream";
}

TEST(SeededDeterminism, TracingDoesNotPerturbTheOpStream) {
  // The tracer observes the run; it must not participate in it. The same
  // seed replays the identical history whether the rings are recording or
  // not — which is also what licenses shipping the emit() seams
  // compiled-in on every benchmark path.
  const run_out off = one_run("Epoch", "hashmap", 0xfeed);
  obs::reset();
  obs::set_ring_capacity(4096);
  obs::set_tracing(true);
  const run_out on = one_run("Epoch", "hashmap", 0xfeed);
  std::uint64_t recorded = 0;
  for (const obs::thread_trace& t : obs::snapshot()) recorded += t.emitted;
  obs::reset();
  obs::set_ring_capacity(8192);  // restore the shipping default
  EXPECT_GT(recorded, 0u) << "tracing was on; the run must leave records";
  EXPECT_EQ(off.total_ops, on.total_ops);
  EXPECT_TRUE(off.history == on.history)
      << "enabling the tracer must not change the op stream";
}

TEST(SeededDeterminism, DifferentSeedDifferentStream) {
  const run_out a = one_run("Epoch", "hashmap", 0xfeed);
  const run_out c = one_run("Epoch", "hashmap", 0xbeef);
  EXPECT_EQ(a.total_ops, c.total_ops) << "budgets bound ops, not the seed";
  EXPECT_FALSE(a.history == c.history)
      << "different seeds must draw different streams";
}

TEST(SeededDeterminism, BudgetedHistoryIsLinearizable) {
  // The recorded stream from a budgeted run feeds the oracle like any
  // other: single-threaded histories are sequential and must pass.
  const auto& reg = harness::scheme_registry::instance();
  harness::runner_fn run = reg.runner("Hyaline-S", "list");
  ASSERT_NE(run, nullptr);
  check::history_recorder rec;
  harness::workload_config cfg;
  cfg.threads = 1;
  cfg.repeats = 1;
  cfg.op_limit = 5000;
  cfg.duration_ms = 10000;
  cfg.key_range = 64;
  cfg.prefill = 16;
  cfg.history = &rec;
  harness::scheme_params p;
  p.slot_threads = 4;
  (void)run(p, cfg);
  const check::check_result res =
      check::check_history(check::semantics::set, rec.collect(), false);
  EXPECT_TRUE(res.ok) << (res.bad ? res.bad->what : "");
  EXPECT_EQ(res.undecided, 0u) << "sequential histories have no overlap";
}

}  // namespace
}  // namespace hyaline
