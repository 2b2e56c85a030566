// CI validator for the observability artifacts:
//
//   trace_check TRACE.json TIMELINE.json
//
// It takes no flags; the thresholds are the named constants below.
//
// TRACE.json is a `--trace` export from fig_timeline: it must parse as
// Chrome trace-event JSON (the dialect Perfetto loads), carry a
// non-empty "traceEvents" array, and an "otherData" block with the clock
// calibration and per-thread drop accounting — the parts a human debugs
// from, so CI notices when a writer change silently drops them.
//
// TIMELINE.json is the same run's --json trajectory. The checked
// property is the paper's robustness story measured in time units, via
// three assertions chosen for stability (a gate that cries wolf gets
// deleted):
//   1. The spike scheme's lag MAX reaches kMinMaxMs: some node
//      demonstrably waited out the stall, so the fault is visible in the
//      lag attribution at all (fault-free runs sit far below this).
//   2. The spike scheme's lag p99 clears kMinP99Ms: the tail is
//      populated, so a dead lag pipeline (all-zero histograms) cannot
//      pass.
//   3. Tail MASS contrast: the fraction of frees that lagged past
//      kTailMs must be >= kMinTail for the spike scheme and >= kRatio x
//      the bounded scheme's fraction. Mass, not a percentile:
//      a robust scheme bounds HOW MANY nodes a stall can delay, not how
//      long the unlucky ones wait, so its p99 rides a rank cliff (the
//      bounded backlog is a run-varying ~1% of total frees) while its
//      tail fraction is smooth.
//
// Exit codes: 0 = all checks pass, 1 = a check failed, 2 = usage/load.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/json.hpp"

namespace {

namespace json = hyaline::harness::json;

/// The non-robust scheme whose lag must spike under the stall, and the
/// robust one whose tail mass must stay a fraction of it.
constexpr const char* kSpikeScheme = "Epoch";
constexpr const char* kBoundedScheme = "Hyaline-1S";
constexpr double kRatio = 2.0;       ///< spike tail mass >= kRatio x bounded
constexpr double kMinP99Ms = 25.0;   ///< spike lag p99 floor
constexpr double kMinMaxMs = 75.0;   ///< spike lag max floor
constexpr double kTailMs = 32.0;     ///< a free past this lag is in the tail
constexpr double kMinTail = 0.01;    ///< spike tail-mass floor (fraction)

bool check_trace(const std::string& path) {
  json::jvalue root;
  std::string err;
  if (!json::load_file(path, root, err)) {
    std::fprintf(stderr, "trace: %s\n", err.c_str());
    return false;
  }
  const json::jvalue* events = json::get(root, "traceEvents");
  if (events == nullptr || !events->is_arr()) {
    std::fprintf(stderr, "trace: %s: no 'traceEvents' array\n",
                 path.c_str());
    return false;
  }
  if (events->arr->empty()) {
    std::fprintf(stderr,
                 "trace: %s: 'traceEvents' is empty — tracing was on but "
                 "nothing was recorded\n",
                 path.c_str());
    return false;
  }
  // Every record must at least have a phase; duration slices and instants
  // both do. A malformed writer shows up here before it shows up as a
  // Perfetto import error nobody runs in CI.
  std::size_t named = 0;
  for (const json::jvalue& e : *events->arr) {
    std::string ph;
    std::string ferr;
    if (!e.is_obj() || !json::want_str(e, "ph", ph, ferr)) {
      std::fprintf(stderr, "trace: %s: event without a 'ph' phase field\n",
                   path.c_str());
      return false;
    }
    if (json::get(e, "name") != nullptr) ++named;
  }
  const json::jvalue* other = json::get(root, "otherData");
  if (other == nullptr || !other->is_obj()) {
    std::fprintf(stderr, "trace: %s: no 'otherData' metadata block\n",
                 path.c_str());
    return false;
  }
  std::string clock;
  std::string err2;
  double tpn = 0;
  if (!json::want_str(*other, "clock", clock, err2) ||
      !json::want_num(*other, "ticks_per_ns", tpn, err2)) {
    std::fprintf(stderr, "trace: %s: otherData: %s\n", path.c_str(),
                 err2.c_str());
    return false;
  }
  const json::jvalue* threads = json::get(*other, "threads");
  if (threads == nullptr || !threads->is_arr() || threads->arr->empty()) {
    std::fprintf(stderr,
                 "trace: %s: otherData lacks the per-thread drop "
                 "accounting ('threads' array)\n",
                 path.c_str());
    return false;
  }
  std::printf("trace: %s: %zu events (%zu named), %zu threads, clock=%s\n",
              path.c_str(), events->arr->size(), named,
              threads->arr->size(), clock.c_str());
  return true;
}

struct lag_point {
  double p99 = 0;
  double max = 0;
  double count = 0;
  std::vector<double> buckets;  // log2 histogram, bucket b = [2^(b-1), 2^b)
};

/// Pull a scheme's lag figures out of a fig_timeline --json file; the
/// timeline kind emits exactly one point per scheme series.
bool lag_of(const json::jvalue& root, const char* scheme, lag_point* out) {
  const json::jvalue* series = json::get(root, "series");
  if (series == nullptr || !series->is_arr()) return false;
  for (const json::jvalue& s : *series->arr) {
    std::string name;
    std::string err;
    if (!s.is_obj() || !json::want_str(s, "scheme", name, err)) continue;
    if (name != scheme) continue;
    const json::jvalue* points = json::get(s, "points");
    if (points == nullptr || !points->is_arr() || points->arr->empty()) {
      return false;
    }
    const json::jvalue& pt = points->arr->front();
    if (!json::want_num(pt, "lag_p99_ns", out->p99, err) ||
        !json::want_num(pt, "lag_max_ns", out->max, err) ||
        !json::want_num(pt, "lag_count", out->count, err)) {
      return false;
    }
    const json::jvalue* buckets = json::get(pt, "lag_bucket");
    if (buckets == nullptr || !buckets->is_arr()) return false;
    for (const json::jvalue& b : *buckets->arr) {
      if (!b.is_num()) return false;
      out->buckets.push_back(b.num);
    }
    return true;
  }
  return false;
}

/// Fraction of all frees whose retire->free lag was at least min_ns
/// (rounded up to the next bucket boundary — bucket b's low edge is
/// 2^(b-1) ns).
double tail_frac(const lag_point& lp, double min_ns) {
  if (lp.count <= 0) return 0;
  double tail = 0;
  for (std::size_t b = 1; b < lp.buckets.size(); ++b) {
    if (std::ldexp(1.0, static_cast<int>(b) - 1) >= min_ns) {
      tail += lp.buckets[b];
    }
  }
  return tail / lp.count;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
    std::fprintf(stderr, "usage: %s TRACE.json TIMELINE.json\n", argv[0]);
    return 2;
  }
  const std::string trace_path = argv[1];
  const std::string timeline_path = argv[2];

  bool ok = check_trace(trace_path);

  json::jvalue root;
  std::string err;
  if (!json::load_file(timeline_path, root, err)) {
    std::fprintf(stderr, "timeline: %s\n", err.c_str());
    return 2;
  }
  lag_point spike_lag, bounded_lag;
  if (!lag_of(root, kSpikeScheme, &spike_lag)) {
    std::fprintf(stderr,
                 "timeline: %s: no lag point for scheme '%s'\n",
                 timeline_path.c_str(), kSpikeScheme);
    return 2;
  }
  if (!lag_of(root, kBoundedScheme, &bounded_lag)) {
    std::fprintf(stderr,
                 "timeline: %s: no lag point for scheme '%s'\n",
                 timeline_path.c_str(), kBoundedScheme);
    return 2;
  }
  const double spike_frac = tail_frac(spike_lag, kTailMs * 1e6);
  const double bounded_frac = tail_frac(bounded_lag, kTailMs * 1e6);
  std::printf("lag: %s p99 %.2f ms max %.2f ms tail>=%.0fms %.2f%% | "
              "%s p99 %.2f ms max %.2f ms tail>=%.0fms %.2f%%\n",
              kSpikeScheme, spike_lag.p99 / 1e6, spike_lag.max / 1e6,
              kTailMs, spike_frac * 100, kBoundedScheme,
              bounded_lag.p99 / 1e6, bounded_lag.max / 1e6, kTailMs,
              bounded_frac * 100);
  if (spike_lag.max < kMinMaxMs * 1e6) {
    std::fprintf(stderr,
                 "FAIL: %s lag max %.2f ms < %.0f ms — no node waited "
                 "out the stall, so the fault never reached the lag "
                 "attribution\n",
                 kSpikeScheme, spike_lag.max / 1e6, kMinMaxMs);
    ok = false;
  }
  if (spike_lag.p99 < kMinP99Ms * 1e6) {
    std::fprintf(stderr,
                 "FAIL: %s lag p99 %.2f ms < %.0f ms — the lag tail is "
                 "unpopulated (dead histogram plumbing?)\n",
                 kSpikeScheme, spike_lag.p99 / 1e6, kMinP99Ms);
    ok = false;
  }
  if (spike_frac < kMinTail) {
    std::fprintf(stderr,
                 "FAIL: only %.3f%% of %s frees lagged past %.0f ms "
                 "(want >= %.1f%%) — the stall barely registered\n",
                 spike_frac * 100, kSpikeScheme, kTailMs, kMinTail * 100);
    ok = false;
  }
  if (spike_frac < kRatio * bounded_frac) {
    std::fprintf(stderr,
                 "FAIL: %s tail mass (%.3f%%) is not %.1fx %s's "
                 "(%.3f%%) — the robust/non-robust contrast is gone\n",
                 kSpikeScheme, spike_frac * 100, kRatio, kBoundedScheme,
                 bounded_frac * 100);
    ok = false;
  }
  if (ok) std::printf("trace_check: all checks passed\n");
  return ok ? 0 : 1;
}
