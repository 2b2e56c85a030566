// Service scenario: a sharded cache under a simulated million-user swarm
// with SLO gating.
//
// Each scheme in the line-up gets a fresh shard_router (one SMR domain
// per shard) driven by an open-loop tenant swarm (svc/service.hpp):
// Zipfian keys, Poisson arrivals, coordinated-omission-safe latency,
// optional connection churn, and --faults for bad tenants
// (lab/fault_plan.hpp: stall and churn, and the hot-key window only this
// loop runs; never-ending windows exit 2). The --slo assertions
// (svc/slo.hpp) are then evaluated over the victim latency histogram and
// the aggregate reclamation time series; any gated violation exits 6, a
// reclamation leak exits 3, usage errors exit 2.
//
//   ./fig_service --tenants 16 --svc-shards 4 --churn 200 \
//       --faults 'stall:3@600ms+300ms,hot:7@700ms+300ms' \
//       --slo 'p99=50ms,unreclaimed<4x,recovery<1s' --json SERVICE.json
//
// CSV rows use the standard figure columns (structure = "cache",
// threads = tenants, stalled = tenants with a scripted stall window);
// the SLO verdicts go to stderr and into the --json report.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/figures.hpp"
#include "harness/provenance.hpp"
#include "harness/registry.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "svc/slo.hpp"

namespace {

using namespace hyaline;
using namespace hyaline::svc;

constexpr const char* kFigure = "fig-service";
/// Robust (Hyaline-S, HE, HP) alongside the epoch-style baselines whose
/// unbounded growth under a stall the report is meant to contrast.
constexpr const char* kDefaultLineup[] = {"Epoch", "Hyaline", "Hyaline-S",
                                          "HE", "HP"};
constexpr const char* kDefaultSlo = "p99=100ms,unreclaimed<8x,recovery<2s";

struct scheme_report {
  std::string scheme;
  bool robust = false;
  service_result res;
  std::vector<slo_verdict> verdicts;
};

double timeline_mean_unreclaimed(const std::vector<lab::sample_point>& pts) {
  if (pts.empty()) return 0;
  double sum = 0;
  for (const lab::sample_point& p : pts) {
    sum += static_cast<double>(p.unreclaimed);
  }
  return sum / static_cast<double>(pts.size());
}

void write_json(std::FILE* f, const harness::cli_options& o,
                const service_config& cfg, const slo_spec& slo,
                const std::vector<scheme_report>& reports) {
  std::fprintf(f, "{\n  \"figure\": \"%s\",\n", kFigure);
  // None of the spec grammars admit quote or backslash characters, so
  // the strings embed verbatim (same stance as the --faults echo in
  // harness/figures.cpp).
  std::fprintf(
      f,
      "  \"config\": {\"shards\": %u, \"tenants\": %u, \"rate_ops_s\": "
      "%.0f, \"arrival\": \"poisson\", \"zipf_theta\": %.3f, \"key_range\": "
      "%llu, \"prefill\": %zu, \"mix\": {\"insert\": %u, \"remove\": %u, "
      "\"get\": %u}, \"duration_ms\": %u, \"sample_ms\": %u, "
      "\"churn_ms\": %u, \"faults\": \"%s\", \"slo\": \"%s\", "
      "\"seed\": %llu, %s},\n",
      cfg.shards, cfg.tenants, cfg.rate_ops_s, cfg.zipf_theta,
      static_cast<unsigned long long>(cfg.key_range),
      cfg.prefill, cfg.insert_pct, cfg.remove_pct, cfg.get_pct,
      cfg.duration_ms, cfg.sample_ms, cfg.churn_period_ms, o.faults.c_str(),
      slo.text.c_str(), static_cast<unsigned long long>(o.seed),
      harness::provenance_json().c_str());
  std::fprintf(f, "  \"series\": [");
  bool first = true;
  for (const scheme_report& rep : reports) {
    const service_result& r = rep.res;
    std::fprintf(f,
                 "%s\n    {\"scheme\": \"%s\", \"robust\": %s, "
                 "\"mops\": %.6f, \"ops\": %llu, \"retired\": %llu, "
                 "\"freed\": %llu, \"unreclaimed_peak\": %llu,\n",
                 first ? "" : ",", rep.scheme.c_str(),
                 rep.robust ? "true" : "false", r.mops,
                 static_cast<unsigned long long>(r.ops),
                 static_cast<unsigned long long>(r.retired),
                 static_cast<unsigned long long>(r.freed),
                 static_cast<unsigned long long>(r.unreclaimed_peak));
    std::fprintf(f,
                 "     \"victim_latency\": {\"ops\": %llu, \"p50_ns\": "
                 "%.0f, \"p90_ns\": %.0f, \"p99_ns\": %.0f, \"max_ns\": "
                 "%llu},\n",
                 static_cast<unsigned long long>(r.victim_hist.total()),
                 r.victim_hist.percentile(0.50),
                 r.victim_hist.percentile(0.90),
                 r.victim_hist.percentile(0.99),
                 static_cast<unsigned long long>(r.victim_hist.max()));
    std::fprintf(f,
                 "     \"retire_free_lag\": {\"count\": %llu, \"p50_ns\": "
                 "%.0f, \"p99_ns\": %.0f, \"max_ns\": %llu},\n",
                 static_cast<unsigned long long>(r.obs.lag_count),
                 r.lag.p50_ns, r.lag.p99_ns,
                 static_cast<unsigned long long>(r.lag.max_ns));
    std::fprintf(f,
                 "     \"counters\": {\"scans\": %llu, \"rearms\": %llu, "
                 "\"finalizes\": %llu, \"era_advances\": %llu, "
                 "\"tid_acquires\": %llu},\n",
                 static_cast<unsigned long long>(r.obs.scans),
                 static_cast<unsigned long long>(r.obs.rearms),
                 static_cast<unsigned long long>(r.obs.finalizes),
                 static_cast<unsigned long long>(r.obs.era_advances),
                 static_cast<unsigned long long>(r.obs.tid_acquires));
    std::fprintf(f,
                 "     \"scripted_latency\": {\"ops\": %llu, \"p99_ns\": "
                 "%.0f},\n",
                 static_cast<unsigned long long>(r.scripted_hist.total()),
                 r.scripted_hist.percentile(0.99));
    std::fprintf(f, "     \"shards\": [");
    for (std::size_t i = 0; i < r.shards.size(); ++i) {
      const shard_snapshot& s = r.shards[i];
      std::fprintf(f,
                   "%s{\"gets\": %llu, \"hits\": %llu, \"puts\": %llu, "
                   "\"dels\": %llu, \"retired\": %llu, \"freed\": %llu}",
                   i == 0 ? "" : ", ",
                   static_cast<unsigned long long>(s.gets),
                   static_cast<unsigned long long>(s.hits),
                   static_cast<unsigned long long>(s.puts),
                   static_cast<unsigned long long>(s.dels),
                   static_cast<unsigned long long>(s.retired),
                   static_cast<unsigned long long>(s.freed));
    }
    std::fprintf(f, "],\n     \"slo\": [");
    for (std::size_t i = 0; i < rep.verdicts.size(); ++i) {
      const slo_verdict& v = rep.verdicts[i];
      std::fprintf(f,
                   "%s{\"item\": \"%s\", \"gated\": %s, \"checked\": %s, "
                   "\"pass\": %s, \"measured\": %.1f, \"limit\": %.1f}",
                   i == 0 ? "" : ", ", kind_name(v.item.kind),
                   v.gated ? "true" : "false",
                   v.checked ? "true" : "false", v.pass ? "true" : "false",
                   std::isinf(v.measured) ? -1.0 : v.measured, v.limit);
    }
    std::fprintf(f, "],\n     \"timeline\": [");
    harness::write_timeline_json(f, r.timeline);
    std::fprintf(f, "\n    ]}");
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  harness::cli_options defaults;
  defaults.duration_ms = 2000;
  const harness::cli_options o =
      harness::parse_cli(argc, argv, defaults, harness::kServiceFlags);

  service_config cfg;
  cfg.shards = o.svc_shards != 0 ? o.svc_shards : 4;
  cfg.tenants = o.tenants != 0 ? o.tenants : 16;
  // Default offered load: enough per tenant that the SLO windows hold a
  // meaningful sample count, low enough that CI boxes are not saturated.
  cfg.rate_ops_s =
      o.rate_ops_s >= 0 ? o.rate_ops_s : 3000.0 * cfg.tenants;
  cfg.key_range = o.key_range;
  cfg.prefill = o.prefill;
  cfg.duration_ms = o.duration_ms;
  cfg.seed = o.seed;
  cfg.churn_period_ms = o.churn_ms;

  lab::fault_plan faults;
  if (!harness::load_fault_plan(o, cfg.tenants, lab::fault_loop::service,
                                &faults)) {
    return 2;
  }
  cfg.faults = &faults;

  std::string slo_err;
  auto slo = parse_slo(o.slo.empty() ? kDefaultSlo : o.slo, &slo_err);
  if (!slo.has_value()) {
    std::fprintf(stderr, "--slo: %s\n", slo_err.c_str());
    return 2;
  }

  // Line-up: the contrast set by default, any service-capable scheme by
  // name. Unknown names fail loudly before any output.
  const harness::scheme_registry& reg =
      harness::scheme_registry::instance();
  std::vector<std::string> valid;
  for (const harness::scheme_registry::entry& e : reg.schemes()) {
    if (e.service != nullptr) valid.push_back(e.name);
  }
  if (!harness::validate_scheme_filter(o, valid)) return 2;
  std::vector<std::string> lineup(std::begin(kDefaultLineup),
                                  std::end(kDefaultLineup));
  if (!o.schemes.empty()) lineup = o.schemes;

  std::set<unsigned> stall_tenants;
  for (const lab::fault_event& e : faults.events) {
    if (e.kind == lab::fault_kind::stall) stall_tenants.insert(e.tid);
  }
  const disturbance disturbed = disturbance_of(faults);

  // Lag tracking is always on here: the retire->free lag columns are the
  // per-shard blast-radius story told in time units, which is what this
  // report exists to show. Tracing flips on before any shard domain
  // exists so no ring registration races a worker.
  obs::set_lag_tracking(true);
  if (!o.trace.empty()) obs::set_tracing(true);

  harness::print_csv_header(kFigure, o.seed);
  std::vector<scheme_report> reports;
  bool violated = false;
  for (const std::string& name : lineup) {
    harness::scheme_params p;
    p.ack_threshold = harness::kShortRunAckThreshold;
    const harness::scheme_registry::entry* e = reg.find(name);
    scheme_report rep;
    rep.scheme = name;
    rep.robust = e->caps.robust;
    rep.res = e->service(p, cfg);
    const service_result& r = rep.res;

    if (r.retired != r.freed) {
      std::fprintf(stderr,
                   "%s: leak — retired %llu, freed %llu after shutdown\n",
                   name.c_str(), static_cast<unsigned long long>(r.retired),
                   static_cast<unsigned long long>(r.freed));
      return 3;
    }

    slo_inputs in;
    in.latency = &r.victim_hist;
    in.timeline = &r.timeline;
    in.disturb_start_ms = disturbed.start_ms;
    in.disturb_end_ms = disturbed.end_ms;
    in.duration_ms = cfg.duration_ms;
    in.robust = rep.robust;
    rep.verdicts = evaluate_slo(*slo, in);

    const shard_totals totals = aggregate(r.shards);
    std::fprintf(stderr,
                 "%s: %.3f Mops/s over %u shards (imbalance %.2f), "
                 "victim p99 %.0fus over %llu ops\n",
                 name.c_str(), r.mops, cfg.shards, totals.imbalance,
                 r.victim_hist.percentile(0.99) / 1e3,
                 static_cast<unsigned long long>(r.victim_hist.total()));
    for (const slo_verdict& v : rep.verdicts) {
      std::fprintf(stderr, "%s:   %s\n", name.c_str(),
                   format_verdict(v).c_str());
    }
    if (slo_violated(rep.verdicts)) violated = true;

    harness::print_csv_row(
        kFigure, "cache", name.c_str(), cfg.tenants,
        static_cast<unsigned>(stall_tenants.size()), 0, 0,
        r.mops, timeline_mean_unreclaimed(r.timeline),
        static_cast<double>(r.unreclaimed_peak),
        r.victim_hist.percentile(0.50), r.victim_hist.percentile(0.99),
        static_cast<double>(r.victim_hist.max()), r.lag.p50_ns,
        r.lag.p99_ns, static_cast<double>(r.lag.max_ns));
    reports.push_back(std::move(rep));
  }

  int status = violated ? 6 : 0;
  if (violated) {
    std::fprintf(stderr, "SLO violated (spec: %s)\n", slo->text.c_str());
  }
  // A violation still writes the JSON: the series showing WHY the gate
  // tripped is exactly what a CI debugger needs.
  if (!o.json.empty() &&
      !harness::write_output("--json", o.json, [&](std::FILE* f) {
        write_json(f, o, cfg, *slo, reports);
      })) {
    status = 2;
  }
  if (!o.trace.empty()) {
    std::string err;
    if (!obs::write_chrome_trace(o.trace, &err)) {
      std::fprintf(stderr, "--trace: %s\n", err.c_str());
      status = 2;
    }
  }
  return status;
}
