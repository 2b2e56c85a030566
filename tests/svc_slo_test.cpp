// Unit tests for the SLO gate (svc/slo.hpp): parse acceptance/rejection,
// the settled-tail semantics of `unreclaimed<Fx`, recovery timing, and
// robust-only gating of the memory items. The service's fault schedule
// (hot and scan windows, churn lowering) is tested in lab_test.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "lab/telemetry.hpp"
#include "svc/slo.hpp"

namespace {

using namespace hyaline::svc;
using hyaline::lab::latency_histogram;
using hyaline::lab::sample_point;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// parse_slo

TEST(SloParse, AcceptsFullGrammar) {
  std::string err;
  const auto spec = parse_slo("p99=500us,unreclaimed<2x,recovery<1s", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  ASSERT_EQ(spec->items.size(), 3u);
  EXPECT_EQ(spec->items[0].kind, slo_kind::p99);
  EXPECT_DOUBLE_EQ(spec->items[0].bound, 500e3);  // ns
  EXPECT_EQ(spec->items[1].kind, slo_kind::unreclaimed);
  EXPECT_DOUBLE_EQ(spec->items[1].bound, 2.0);  // factor
  EXPECT_EQ(spec->items[2].kind, slo_kind::recovery);
  EXPECT_DOUBLE_EQ(spec->items[2].bound, 1000.0);  // ms
  EXPECT_EQ(spec->text, "p99=500us,unreclaimed<2x,recovery<1s");
}

TEST(SloParse, RejectsBadSpecs) {
  const char* bad[] = {
      "",                        // empty spec
      "p95=1ms",                 // unknown item
      "p50=1ms",                 // p99 is the one latency item
      "p90=1ms",
      "max=1ms",
      "p99",                     // missing '='
      "p99=",                    // missing bound
      "p99=banana",              // unparsable time
      "p99=-1ms",                // negative bound
      "unreclaimed<2",           // missing 'x'
      "unreclaimed<x",           // missing factor
      "unreclaimed<0x",          // non-positive factor
      "recovery<1s,recovery<2s", // duplicate kind
      "p99=1ms,",                // trailing empty item
      "p99=1ms,p99=2ms",         // duplicate latency kind
      "p99=1msQ",                // trailing garbage
  };
  for (const char* spec : bad) {
    std::string err;
    EXPECT_FALSE(parse_slo(spec, &err).has_value())
        << "accepted: \"" << spec << "\"";
    EXPECT_FALSE(err.empty()) << spec;
  }
}

// ---------------------------------------------------------------------
// evaluate_slo

std::vector<sample_point> make_timeline(
    std::initializer_list<std::pair<double, std::uint64_t>> pts) {
  std::vector<sample_point> tl;
  for (const auto& [t, u] : pts) {
    sample_point s;
    s.t_ms = t;
    s.unreclaimed = u;
    tl.push_back(s);
  }
  return tl;
}

// Baseline peak 5000 before the disturbance at [400, 600); a spike to
// 50000 inside the window; settled back to 6000 in the tail. With
// factor 2 the limit is 10000: unreclaimed passes (the spike is inside
// the window, where growth is expected) and recovery passes (first
// sample back under the limit lands 100 ms after the window ends).
struct disturbed_fixture {
  std::vector<sample_point> timeline = make_timeline({{100, 3000},
                                                      {200, 5000},
                                                      {300, 4000},
                                                      {450, 20000},
                                                      {550, 50000},
                                                      {700, 30000},
                                                      {780, 12000},
                                                      {850, 6000},
                                                      {900, 5500},
                                                      {950, 6000}});
  latency_histogram hist;
  slo_inputs in;

  disturbed_fixture() {
    for (int i = 0; i < 1000; ++i) {
      hist.record(100000);  // 100us
    }
    in.latency = &hist;
    in.timeline = &timeline;
    in.disturb_start_ms = 400;
    in.disturb_end_ms = 600;
    in.duration_ms = 1000;
    in.robust = true;
  }
};

TEST(SloEvaluate, SettledTailPassesDespiteWindowSpike) {
  disturbed_fixture f;
  std::string err;
  const auto spec =
      parse_slo("p99=500us,unreclaimed<2x,recovery<1s", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto verdicts = evaluate_slo(*spec, f.in);
  ASSERT_EQ(verdicts.size(), 3u);
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.gated) << format_verdict(v);
    EXPECT_TRUE(v.checked) << format_verdict(v);
    EXPECT_TRUE(v.pass) << format_verdict(v);
  }
  EXPECT_FALSE(slo_violated(verdicts));
  // unreclaimed: limit = max(2 x 5000 baseline peak, floor) = 10000.
  EXPECT_DOUBLE_EQ(verdicts[1].limit, 10000.0);
  // recovery: the window ends at 600; samples settle from t >= 800
  // (settle point = 600 + (1000-600)/2); the 850 sample at 6000 is the
  // first under the limit -> 250 ms.
  EXPECT_LE(verdicts[2].measured, 1000.0);
}

TEST(SloEvaluate, TailAboveLimitFailsUnreclaimed) {
  disturbed_fixture f;
  f.timeline.back().unreclaimed = 30000;  // never settles
  std::string err;
  const auto spec = parse_slo("unreclaimed<2x", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto verdicts = evaluate_slo(*spec, f.in);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].gated);
  EXPECT_TRUE(verdicts[0].checked);
  EXPECT_FALSE(verdicts[0].pass);
  EXPECT_TRUE(slo_violated(verdicts));
}

TEST(SloEvaluate, MemoryItemsReportUngatedForNonRobustSchemes) {
  disturbed_fixture f;
  f.in.robust = false;
  f.timeline.back().unreclaimed = 30000;  // would fail if gated
  std::string err;
  const auto spec = parse_slo("unreclaimed<2x,recovery<10ms", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto verdicts = evaluate_slo(*spec, f.in);
  ASSERT_EQ(verdicts.size(), 2u);
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.gated) << format_verdict(v);
  }
  // Still measured and reported — just not counted toward exit status.
  EXPECT_TRUE(verdicts[0].checked);
  EXPECT_FALSE(verdicts[0].pass);
  EXPECT_FALSE(slo_violated(verdicts));
}

TEST(SloEvaluate, LatencyGatesEveryScheme) {
  disturbed_fixture f;
  f.in.robust = false;
  std::string err;
  const auto spec = parse_slo("p99=1ns", &err);  // impossible bound
  ASSERT_TRUE(spec.has_value()) << err;
  const auto verdicts = evaluate_slo(*spec, f.in);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_TRUE(verdicts[0].gated);
  EXPECT_TRUE(verdicts[0].checked);
  EXPECT_FALSE(verdicts[0].pass);
  EXPECT_TRUE(slo_violated(verdicts));
}

TEST(SloEvaluate, RecoveryUncheckedWithoutDisturbance) {
  disturbed_fixture f;
  f.in.disturb_start_ms = kInf;  // no script
  f.in.disturb_end_ms = 0;
  // Without a disturbance window the memory bound judges the second
  // half against the first — use a calm series (the fixture's scripted
  // spike would straddle the split).
  f.timeline = make_timeline(
      {{100, 3000}, {300, 5000}, {600, 6000}, {900, 5000}});
  std::string err;
  const auto spec = parse_slo("recovery<1s,unreclaimed<2x", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto verdicts = evaluate_slo(*spec, f.in);
  ASSERT_EQ(verdicts.size(), 2u);
  // recovery has nothing to recover from: unchecked, not failed.
  EXPECT_FALSE(verdicts[0].checked);
  EXPECT_FALSE(slo_violated(verdicts));
  // unreclaimed still judges second half vs first half.
  EXPECT_TRUE(verdicts[1].checked);
}

TEST(SloEvaluate, UncheckedWithoutData) {
  slo_inputs in;  // no histogram, no timeline
  in.duration_ms = 1000;
  in.robust = true;
  std::string err;
  const auto spec = parse_slo("p99=1ms,unreclaimed<2x,recovery<1s", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto verdicts = evaluate_slo(*spec, in);
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.checked) << format_verdict(v);
  }
  EXPECT_FALSE(slo_violated(verdicts));
}

TEST(SloEvaluate, FormatVerdictTagsOutcomes) {
  disturbed_fixture f;
  std::string err;
  const auto spec = parse_slo("p99=500us", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const auto verdicts = evaluate_slo(*spec, f.in);
  ASSERT_EQ(verdicts.size(), 1u);
  const std::string line = format_verdict(verdicts[0]);
  EXPECT_NE(line.find("p99"), std::string::npos) << line;
  EXPECT_NE(line.find("[pass]"), std::string::npos) << line;
}

}  // namespace
