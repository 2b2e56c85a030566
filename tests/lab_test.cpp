// Robustness-lab unit tests: the --faults spec parser (grammar,
// overlapping windows, rejection of malformed input and out-of-range
// tids, the kinds each loop runs), the director's behaviour word, the
// service's reading of a plan (scripted tenants, the SLO disturbance
// window, periodic churn), the log-bucketed latency histogram's bucket
// math and percentile interpolation, the recovery check that
// fig_timeline turns into an exit status, and every fault kind driven
// through every workload loop shape.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "ds/michael_hashmap.hpp"
#include "harness/registry.hpp"
#include "harness/workload.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "smr/stats.hpp"
#include "svc/service.hpp"
#include "svc/slo.hpp"

namespace hyaline::lab {
namespace {

fault_plan parse_ok(const std::string& spec) {
  std::string err;
  auto plan = parse_fault_plan(spec, &err);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << err;
  return plan.has_value() ? *plan : fault_plan{};
}

void expect_reject(const std::string& spec) {
  std::string err;
  EXPECT_FALSE(parse_fault_plan(spec, &err).has_value()) << spec;
  EXPECT_FALSE(err.empty()) << spec;
}

TEST(FaultPlanTest, ParsesStallWithUnits) {
  const fault_plan p = parse_ok("stall:2@500ms+300ms");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].kind, fault_kind::stall);
  EXPECT_EQ(p.events[0].tid, 2u);
  EXPECT_DOUBLE_EQ(p.events[0].start_ms, 500);
  EXPECT_DOUBLE_EQ(p.events[0].dur_ms, 300);
  EXPECT_DOUBLE_EQ(p.first_start_ms(), 500);
  ASSERT_TRUE(p.last_end_ms().has_value());
  EXPECT_DOUBLE_EQ(*p.last_end_ms(), 800);
}

TEST(FaultPlanTest, BareNumbersAreMillisecondsAndSecondsScale) {
  const fault_plan p = parse_ok("stall:0@250+1s,churn:4@1s");
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_DOUBLE_EQ(p.events[0].start_ms, 250);
  EXPECT_DOUBLE_EQ(p.events[0].dur_ms, 1000);
  EXPECT_EQ(p.events[1].kind, fault_kind::churn);
  EXPECT_DOUBLE_EQ(p.events[1].start_ms, 1000);
}

TEST(FaultPlanTest, MicrosecondUnit) {
  const fault_plan p = parse_ok("stall:0@1500us+500us");
  EXPECT_DOUBLE_EQ(p.events[0].start_ms, 1.5);
  EXPECT_DOUBLE_EQ(p.events[0].dur_ms, 0.5);
}

TEST(FaultPlanTest, InfiniteStallIsTheDegenerateLegacyMode) {
  const fault_plan p = parse_ok("stall:1@0+inf");
  EXPECT_TRUE(std::isinf(p.events[0].dur_ms));
  // An open-ended fault leaves no fault-free tail to measure recovery in.
  EXPECT_FALSE(p.last_end_ms().has_value());
}

TEST(FaultPlanTest, SlowCarriesPerOpDelay) {
  const fault_plan p = parse_ok("slow:3/25@100ms+200ms");
  EXPECT_EQ(p.events[0].kind, fault_kind::slow);
  EXPECT_EQ(p.events[0].tid, 3u);
  EXPECT_EQ(p.events[0].delay_us, 25u);
}

TEST(FaultPlanTest, BurstAndExit) {
  const fault_plan p = parse_ok("burst:5000@1s,exit:2@700ms");
  EXPECT_EQ(p.events[0].kind, fault_kind::burst);
  EXPECT_EQ(p.events[0].count, 5000u);
  EXPECT_EQ(p.events[1].kind, fault_kind::exit_thread);
  ASSERT_TRUE(p.last_end_ms().has_value());
  EXPECT_DOUBLE_EQ(*p.last_end_ms(), 1000);  // instantaneous events
}

TEST(FaultPlanTest, OverlappingWindowsParse) {
  // Overlaps are legal — stall depths and slow delays compose — including
  // two windows on the same tid.
  const fault_plan p =
      parse_ok("stall:1@100ms+400ms,stall:1@200ms+100ms,slow:1/10@0+1s");
  EXPECT_EQ(p.events.size(), 3u);
  EXPECT_DOUBLE_EQ(p.first_start_ms(), 0);
  EXPECT_DOUBLE_EQ(*p.last_end_ms(), 1000);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  expect_reject("");
  expect_reject("stall");
  expect_reject("stall:");
  expect_reject("stall:1");            // missing @start
  expect_reject("stall:1@");
  expect_reject("stall:1@100ms");      // stall needs a window
  expect_reject("stall:1@100ms+");
  expect_reject("stall:1@100ms+0");    // empty window
  expect_reject("stall:1@-5ms+10ms");  // negative time
  expect_reject("slow:1@0+10ms");      // missing /usec
  expect_reject("slow:1/0@0+10ms");    // zero delay
  expect_reject("slow:1/10@0+inf");    // only stalls may be infinite
  expect_reject("burst:0@10ms");       // zero count
  expect_reject("wobble:1@0");         // unknown kind
  expect_reject("stall:1@0+10ms,");    // trailing empty event
  expect_reject("stall:1@0+10msx");    // trailing garbage
  expect_reject("nap:1@100ms+50ms");   // unknown kind
  expect_reject("hot@100ms+50ms");     // missing ':tid'
  expect_reject("hot:1+50ms");         // missing '@start'
  expect_reject("hot:1@100ms");        // hot needs a window
  expect_reject("scan:1@100ms+0ms");   // empty window
  expect_reject("hot:1@100ms+50msQ");  // trailing garbage
  expect_reject("hot:x@100ms+50ms");   // unparsable tid
  expect_reject("scan:1@abc+50ms");    // unparsable start
  expect_reject("hot:1@0+inf");        // only stalls may be infinite
  expect_reject("hot:1@0+INF");        // nor spelled any other way
}

TEST(FaultPlanTest, ParsesHotAndScanAmongEveryKind) {
  const fault_plan p = parse_ok(
      "stall:3@250ms+200ms,hot:7@300ms+200ms,scan:1@100ms+50ms,"
      "slow:2/10@120ms+30ms,burst:64@5ms,exit:4@50ms,churn:5@900ms");
  ASSERT_EQ(p.events.size(), 7u);
  EXPECT_EQ(p.events[1].kind, fault_kind::hot);
  EXPECT_EQ(p.events[1].tid, 7u);
  EXPECT_DOUBLE_EQ(p.events[1].start_ms, 300);
  EXPECT_DOUBLE_EQ(p.events[1].dur_ms, 200);
  EXPECT_EQ(p.events[2].kind, fault_kind::scan);
  EXPECT_EQ(p.events[2].tid, 1u);
  for (const fault_event& e : p.events) {
    EXPECT_EQ(windowed(e.kind), e.dur_ms > 0);
  }
  EXPECT_DOUBLE_EQ(p.first_start_ms(), 5);
  EXPECT_DOUBLE_EQ(*p.last_end_ms(), 900);

  // A tenant a window names is scripted; exit and churn mark no one.
  for (const unsigned t : {1u, 2u, 3u, 7u}) EXPECT_TRUE(svc::scripted(p, t));
  for (const unsigned t : {0u, 4u, 5u}) EXPECT_FALSE(svc::scripted(p, t));
  // The SLO disturbance window spans the windows only.
  const svc::disturbance d = svc::disturbance_of(p);
  EXPECT_DOUBLE_EQ(d.start_ms, 100);
  EXPECT_DOUBLE_EQ(d.end_ms, 500);

  std::string err;
  EXPECT_TRUE(p.validate_tids(8, &err)) << err;
  EXPECT_FALSE(p.validate_tids(4, &err));  // tid 7 out of range
  EXPECT_FALSE(err.empty());
}

TEST(FaultPlanTest, EachLoopRejectsKindsItCannotRun) {
  std::string err;
  // The workload loops have no inline behaviour to switch to.
  EXPECT_FALSE(
      parse_ok("hot:0@10ms+10ms").runs_on(fault_loop::workload, &err));
  EXPECT_FALSE(
      parse_ok("scan:0@10ms+10ms").runs_on(fault_loop::workload, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_TRUE(parse_ok("stall:0@0+inf,slow:1/5@0+1ms,burst:9@1ms,"
                       "exit:1@2ms,churn:2@3ms")
                  .runs_on(fault_loop::workload, &err))
      << err;
  // The service swarm replays no burst and needs every window to close.
  EXPECT_FALSE(parse_ok("burst:10@50ms").runs_on(fault_loop::service, &err));
  EXPECT_FALSE(
      parse_ok("stall:1@50ms+inf").runs_on(fault_loop::service, &err));
  EXPECT_TRUE(parse_ok("stall:0@1ms+1ms,slow:1/5@0+1ms,hot:2@0+1ms,"
                       "scan:3@0+1ms,exit:1@2ms,churn:2@3ms")
                  .runs_on(fault_loop::service, &err))
      << err;
}

TEST(FaultPlanTest, EmptyPlanReadsAsNoScriptedDisturbance) {
  const fault_plan p;
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.first_start_ms(), 0);
  EXPECT_DOUBLE_EQ(*p.last_end_ms(), 0);
  std::string err;
  EXPECT_TRUE(p.validate_tids(1, &err));
  EXPECT_TRUE(p.runs_on(fault_loop::workload, &err));
  EXPECT_TRUE(p.runs_on(fault_loop::service, &err));
  EXPECT_FALSE(svc::scripted(p, 0));

  // first_start_ms() reads 0 for an empty plan; the disturbance window
  // opens at +infinity instead, so the SLO sees no disturbance at all.
  const svc::disturbance d = svc::disturbance_of(p);
  EXPECT_TRUE(std::isinf(d.start_ms));
  EXPECT_DOUBLE_EQ(d.end_ms, 0);
  const auto slo = svc::parse_slo("recovery<1s", &err);
  ASSERT_TRUE(slo.has_value()) << err;
  svc::slo_inputs in;
  in.disturb_start_ms = d.start_ms;
  in.disturb_end_ms = d.end_ms;
  in.duration_ms = 1000;
  in.robust = true;
  const auto verdicts = svc::evaluate_slo(*slo, in);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].checked);
  EXPECT_STREQ(verdicts[0].note, "no scripted disturbance");
}

TEST(FaultPlanTest, ChurnCyclesOverTenantsNoEventNames) {
  fault_plan p = parse_ok("stall:1@100ms+100ms,hot:3@150ms+100ms");
  svc::add_churn(p, 4, 150, 600.0);
  unsigned churns = 0;
  for (const fault_event& e : p.events) {
    if (e.kind != fault_kind::churn) continue;
    EXPECT_TRUE(e.tid == 0u || e.tid == 2u) << e.tid;
    EXPECT_LT(e.start_ms, 600.0);
    ++churns;
  }
  // Periods at 150, 300, 450 (600 is not strictly inside the run).
  EXPECT_EQ(churns, 3u);
  EXPECT_EQ(p.events.size(), 5u);
  // Churn marks no tenant as scripted and leaves the disturbance window.
  EXPECT_FALSE(svc::scripted(p, 0));
  EXPECT_FALSE(svc::scripted(p, 2));
  EXPECT_DOUBLE_EQ(svc::disturbance_of(p).start_ms, 100);
  EXPECT_DOUBLE_EQ(svc::disturbance_of(p).end_ms, 250);
  std::string err;
  EXPECT_TRUE(p.validate_tids(4, &err)) << err;
  EXPECT_TRUE(p.runs_on(fault_loop::service, &err)) << err;

  // A zero period adds nothing.
  fault_plan quiet = parse_ok("stall:1@100ms+100ms");
  svc::add_churn(quiet, 4, 0, 600.0);
  EXPECT_EQ(quiet.events.size(), 1u);

  // With every tenant named, churn cycles over all of them.
  fault_plan all = parse_ok("hot:0@0+10ms,scan:1@0+10ms");
  svc::add_churn(all, 2, 100, 350.0);
  ASSERT_EQ(all.events.size(), 5u);
  EXPECT_EQ(all.events[2].tid, 0u);
  EXPECT_EQ(all.events[3].tid, 1u);
  EXPECT_EQ(all.events[4].tid, 0u);
}

TEST(FaultDirectorTest, HotWindowFlipsTheBehaviourWordOnAndOff) {
  using clock = std::chrono::steady_clock;
  const fault_plan plan =
      parse_ok("hot:0@30ms+40ms,scan:1@0+40ms,hot:2@0+1s,scan:2@0+1s");
  fault_director dir(plan, 3);
  // Windows open at t=0 apply before the clock thread runs; hot
  // outranks scan while both are open.
  EXPECT_EQ(dir.behaviour_of(0), behaviour::none);
  EXPECT_EQ(dir.behaviour_of(1), behaviour::scan);
  EXPECT_EQ(dir.behaviour_of(2), behaviour::hot);

  const auto t0 = clock::now();
  dir.start();
  // Poll until tid 0 shows `want` (10 s cap); the ms since t0 it took.
  const auto wait_for = [&](behaviour want) {
    const auto deadline = t0 + std::chrono::seconds(10);
    while (dir.behaviour_of(0) != want && clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  const double on_ms = wait_for(behaviour::hot);
  ASSERT_EQ(dir.behaviour_of(0), behaviour::hot);
  EXPECT_GE(on_ms, 30.0);
  const double off_ms = wait_for(behaviour::none);
  EXPECT_EQ(dir.behaviour_of(0), behaviour::none);
  EXPECT_GE(off_ms, 70.0);
  dir.stop();
}

TEST(FaultPlanTest, RejectsTidBeyondWorkerCount) {
  const fault_plan p = parse_ok("stall:4@0+10ms");
  std::string err;
  EXPECT_FALSE(p.validate_tids(4, &err));
  EXPECT_NE(err.find("tid 4"), std::string::npos);
  EXPECT_TRUE(p.validate_tids(5, &err));
  // Burst events carry a count, not a tid; any thread count is fine.
  EXPECT_TRUE(parse_ok("burst:9999@0").validate_tids(1, &err));
}

TEST(LatencyHistogramTest, BucketBoundaries) {
  // Bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b - 1].
  EXPECT_EQ(latency_histogram::bucket_of(0), 0u);
  EXPECT_EQ(latency_histogram::bucket_of(1), 1u);
  EXPECT_EQ(latency_histogram::bucket_of(2), 2u);
  EXPECT_EQ(latency_histogram::bucket_of(3), 2u);
  EXPECT_EQ(latency_histogram::bucket_of(4), 3u);
  EXPECT_EQ(latency_histogram::bucket_of(1023), 10u);
  EXPECT_EQ(latency_histogram::bucket_of(1024), 11u);
  EXPECT_EQ(latency_histogram::bucket_of(~0ULL), 64u);
  for (unsigned b = 1; b < latency_histogram::kBuckets; ++b) {
    EXPECT_EQ(latency_histogram::bucket_of(latency_histogram::bucket_lo(b)),
              b);
    EXPECT_EQ(latency_histogram::bucket_of(latency_histogram::bucket_hi(b)),
              b);
  }
}

TEST(LatencyHistogramTest, EmptyAndSingleValue) {
  latency_histogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0);
  h.record(100);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.max(), 100u);
  // One sample: every quantile lands in its bucket [64, 127].
  EXPECT_GE(h.percentile(0.5), 64);
  EXPECT_LE(h.percentile(0.5), 127);
}

TEST(LatencyHistogramTest, PercentilesRankCorrectly) {
  latency_histogram h;
  // 90 samples in [64,127] (bucket 7), 10 in [1024,2047] (bucket 11).
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(1500);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_LE(h.percentile(0.50), 127);
  EXPECT_LE(h.percentile(0.89), 127);
  EXPECT_GE(h.percentile(0.95), 1024);
  EXPECT_GE(h.percentile(1.0), 1024);
  EXPECT_EQ(h.max(), 1500u);
  // Interpolation stays inside the covering bucket.
  EXPECT_LE(h.percentile(0.99), 2047);
}

TEST(LatencyHistogramTest, MergeAddsCountsAndMax) {
  latency_histogram a, b;
  a.record(10);
  b.record(10000);
  b.record(10);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.max(), 10000u);
  EXPECT_EQ(a.bucket_count(latency_histogram::bucket_of(10)), 2u);
}

std::vector<sample_point> series(
    std::initializer_list<std::pair<double, std::uint64_t>> pts) {
  std::vector<sample_point> out;
  for (const auto& [t, u] : pts) {
    sample_point p;
    p.t_ms = t;
    p.unreclaimed = u;
    out.push_back(p);
  }
  return out;
}

TEST(RecoveryCheckTest, RecoveredSeriesPasses) {
  // Fault window [200, 400] in a 1000 ms run: spike during the fault,
  // settled tail back at baseline. Tail window starts at 700.
  const auto pts = series({{100, 5000},
                           {150, 6000},
                           {300, 90000},
                           {500, 30000},
                           {750, 7000},
                           {900, 6500}});
  const recovery_verdict v = check_recovery(pts, 200, 400, 1000);
  ASSERT_TRUE(v.checked);
  EXPECT_DOUBLE_EQ(v.baseline, 6000);  // pre-fault peak
  EXPECT_DOUBLE_EQ(v.post, 6750);
  EXPECT_TRUE(v.recovered);
}

TEST(RecoveryCheckTest, StuckSeriesFails) {
  const auto pts = series(
      {{100, 5000}, {300, 90000}, {750, 80000}, {900, 85000}});
  const recovery_verdict v = check_recovery(pts, 200, 400, 1000);
  ASSERT_TRUE(v.checked);
  EXPECT_FALSE(v.recovered);
  EXPECT_DOUBLE_EQ(v.limit, 10000);
}

TEST(RecoveryCheckTest, FloorAbsorbsTinyBaselines) {
  // Near-idle pre-fault window: 2x a 10-node baseline would flag any
  // batching scheme; the floor covers it.
  const auto pts = series({{100, 10}, {300, 50000}, {800, 1500}});
  const recovery_verdict v = check_recovery(pts, 200, 400, 1000);
  ASSERT_TRUE(v.checked);
  EXPECT_DOUBLE_EQ(v.limit, 2048);
  EXPECT_TRUE(v.recovered);
}

TEST(RecoveryCheckTest, UncheckedWithoutWindowSamples) {
  // No samples before the fault.
  recovery_verdict v =
      check_recovery(series({{500, 100}, {900, 100}}), 0, 400, 1000);
  EXPECT_FALSE(v.checked);
  // No samples in the settled tail.
  v = check_recovery(series({{100, 100}, {500, 100}}), 200, 400, 1000);
  EXPECT_FALSE(v.checked);
  EXPECT_FALSE(v.recovered);
}

// Regression test for the sampler's synchronization contract: every read
// the sampler thread performs concurrently with workers goes through an
// atomic (per-tid op slots, active count, domain counters), and points()
// is only consumed after stop() joins. Hammer the worker side from
// several threads with the sampler live at its fastest cadence; under
// ThreadSanitizer (HYALINE_TSAN=ON) any unsynchronized sampler read is a
// reported race, and in all builds the final cumulative sample must equal
// the exact op/retire totals (join gives the sampler a coherent view).
TEST(TelemetrySamplerTest, ConcurrentWorkersRaceFree) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 20000;
  smr::stats stats;
  telemetry_collector tc(kThreads, /*sample_ms=*/1, &stats);
  tc.start();
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      tc.thread_enter();
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        tc.on_op(t);
        if (i % 3 == 0) stats.on_retire();
        if (i % 6 == 0) stats.on_free();
      }
      tc.thread_exit();
    });
  }
  for (std::thread& w : workers) w.join();
  // Let a few post-join ticks land: the closing sample in stop() is
  // elided when a regular tick fired within half a cadence, so without
  // this the last sample could predate the final worker ops.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  tc.stop();
  const std::vector<sample_point>& pts = tc.points();
  ASSERT_FALSE(pts.empty());
  // Cumulative counters are monotone across the series...
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].ops, pts[i - 1].ops);
    EXPECT_GE(pts[i].retired, pts[i - 1].retired);
    EXPECT_GE(pts[i].t_ms, pts[i - 1].t_ms);
  }
  // ...and the closing sample (taken after every worker exited and the
  // join ordered their writes before it) sees the exact totals.
  const sample_point& last = pts.back();
  EXPECT_EQ(last.ops, kThreads * kOpsPerThread);
  EXPECT_EQ(last.retired, stats.retired.load(std::memory_order_relaxed));
  EXPECT_EQ(last.freed, stats.freed.load(std::memory_order_relaxed));
  EXPECT_EQ(last.active_threads, 0u);
}

// Churned workers need no capacity either, and every thread hands its
// Hyaline-1 slot id back at exit, churned predecessors and replacements
// alike. After a churned run, two waves of as many threads as there were
// workers, each wave holding a guard at once (more slots than the
// registry's first segment holds), must claim new slots only in the
// first wave: the second fits in the ids the first handed back.
TEST(FaultLoopTest, ExitedAndChurnedWorkersHandTheirSlotsBack) {
  constexpr unsigned kThreads = 2 * smr::core::kFirstSegmentRecords;
  const fault_plan plan =
      parse_ok("churn:1@10ms,churn:1@40ms,churn:1@70ms,churn:1@100ms");
  std::string err;
  ASSERT_TRUE(plan.validate_tids(kThreads, &err)) << err;
  domain_1 dom(config1{.batch_min = 8});
  auto hold_at_once = [&dom] {
    std::atomic<unsigned> holding{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        domain_1::guard g(dom);
        holding.fetch_add(1, std::memory_order_acq_rel);
        while (holding.load(std::memory_order_acquire) < kThreads) {
          std::this_thread::yield();
        }
      });
    }
    for (std::thread& th : ts) th.join();
    return dom.slot_count();
  };
  {
    ds::michael_hashmap<domain_1> map(dom, 256);
    harness::workload_config cfg;
    cfg.threads = kThreads;
    cfg.duration_ms = 130;
    cfg.repeats = 1;
    cfg.key_range = 512;
    cfg.prefill = 128;
    cfg.faults = &plan;
    const harness::workload_result r = harness::run_workload(dom, map, cfg);
    EXPECT_GT(r.total_ops, 0u);
  }
  const std::size_t first = hold_at_once();
  EXPECT_GE(first, kThreads + 1) << "the wave and the prefilling thread";
  EXPECT_EQ(hold_at_once(), first) << "an exited thread kept its slot";
  dom.drain();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed),
            dom.counters().freed.load(std::memory_order_relaxed));
}

// Every fault kind at once, executed (not just parsed) through each loop
// shape: the set loop, the trim loop (faults polled under the held
// guard), and the container loop. A slow window, a burst, an exit, a
// churn replacement and a stall land in one 60 ms run; it must end, the
// scheme must free everything it retired, and a container's ledger must
// close.
TEST(FaultLoopTest, EveryFaultKindThroughEveryLoopShape) {
  const fault_plan plan = parse_ok(
      "slow:0/20@0+5ms,burst:2000@5ms,exit:1@10ms,churn:2@15ms,"
      "stall:0@20ms+10ms");
  constexpr unsigned kThreads = 3;
  std::string err;
  ASSERT_TRUE(plan.validate_tids(kThreads, &err)) << err;

  struct shape {
    const char* scheme;
    const char* structure;
    bool use_trim;
  };
  static constexpr shape kShapes[] = {
      {"Epoch", "hashmap", false},
      {"Hyaline", "hashmap", true},
      {"Epoch", "msqueue", false},
      {"Hyaline-S", "stack", false},
  };
  const auto& reg = harness::scheme_registry::instance();
  for (const shape& sh : kShapes) {
    SCOPED_TRACE(std::string(sh.scheme) + " x " + sh.structure +
                 (sh.use_trim ? " (trim)" : ""));
    const harness::runner_fn run = reg.runner(sh.scheme, sh.structure);
    ASSERT_NE(run, nullptr);
    harness::workload_config cfg;
    cfg.threads = kThreads;
    cfg.duration_ms = 60;
    cfg.repeats = 1;
    cfg.key_range = 1024;
    cfg.prefill = 256;
    cfg.use_trim = sh.use_trim;
    cfg.faults = &plan;
    const harness::workload_result r = run(harness::scheme_params{}, cfg);
    EXPECT_GT(r.total_ops, 0u);
    EXPECT_EQ(r.retired, r.freed) << "scheme leaked retired nodes";
    if (reg.kind_of(sh.structure) == harness::structure_kind::container) {
      EXPECT_EQ(r.enqueued, r.dequeued + r.drained)
          << "conservation violated";
    }
  }
}

}  // namespace
}  // namespace hyaline::lab
