// Sharded read-mostly cache under a small tenant swarm.
//
// A thin demonstration of the service scenario (src/svc): a
// shard_router over Hyaline — each shard owning its own domain — driven
// by a few open-loop tenants (svc/service.hpp) with a scripted
// stall-in-guard window on one of them, then judged against a small SLO
// spec (svc/slo.hpp). The full matrix, CLI, and CI gate live in
// bench/fig_service.cpp; this is the minimal programmatic use.

#include <cstdio>
#include <string>

#include "lab/fault_plan.hpp"
#include "smr/hyaline.hpp"
#include "svc/service.hpp"
#include "svc/slo.hpp"

int main() {
  using namespace hyaline::svc;

  // One tenant stalls inside a guard for 100 ms mid-run; Hyaline is not
  // robust, so the memory SLOs report without gating, but the leak gate
  // and the CO-safe latency bound hold for every scheme.
  std::string err;
  const auto faults =
      hyaline::lab::parse_fault_plan("stall:1@150ms+100ms", &err);
  if (!faults.has_value()) {
    std::fprintf(stderr, "faults: %s\n", err.c_str());
    return 1;
  }

  service_config cfg;
  cfg.shards = 2;
  cfg.tenants = 4;
  cfg.rate_ops_s = 8000;
  cfg.zipf_theta = 0.9;
  cfg.key_range = 20000;
  cfg.prefill = 10000;
  cfg.duration_ms = 400;
  cfg.sample_ms = 20;
  cfg.churn_period_ms = 150;  // connections recycle while the swarm runs
  cfg.faults = &*faults;

  const service_result r =
      run_service<hyaline::domain>(hyaline::harness::scheme_params{}, cfg);

  const shard_totals totals = aggregate(r.shards);
  std::printf("cache: %.3f Mops/s, %llu ops over %u shards "
              "(imbalance %.2f), hit rate %.1f%%\n",
              r.mops, static_cast<unsigned long long>(r.ops), cfg.shards,
              totals.imbalance,
              totals.gets > 0
                  ? 100.0 * static_cast<double>(totals.hits) /
                        static_cast<double>(totals.gets)
                  : 0.0);
  std::printf("victim p99 %.0f us over %llu ops (CO-safe: intended-start "
              "latency)\n",
              r.victim_hist.percentile(0.99) / 1e3,
              static_cast<unsigned long long>(r.victim_hist.total()));

  if (r.retired != r.freed) {
    std::fprintf(stderr, "leak: retired %llu != freed %llu\n",
                 static_cast<unsigned long long>(r.retired),
                 static_cast<unsigned long long>(r.freed));
    return 1;
  }

  const auto slo = parse_slo("p99=250ms,unreclaimed<8x,recovery<1s", &err);
  if (!slo.has_value()) {
    std::fprintf(stderr, "slo: %s\n", err.c_str());
    return 1;
  }
  slo_inputs in;
  in.latency = &r.victim_hist;
  in.timeline = &r.timeline;
  const disturbance d = disturbance_of(*faults);
  in.disturb_start_ms = d.start_ms;
  in.disturb_end_ms = d.end_ms;
  in.duration_ms = cfg.duration_ms;
  in.robust = false;  // Hyaline: memory items report, latency items gate
  const auto verdicts = evaluate_slo(*slo, in);
  for (const slo_verdict& v : verdicts) {
    std::printf("  %s\n", format_verdict(v).c_str());
  }
  return slo_violated(verdicts) ? 1 : 0;
}
