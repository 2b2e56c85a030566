// Service scenario: a sharded cache under a simulated million-user swarm
// with SLO gating.
//
// Each scheme in the line-up gets a fresh shard_router (one SMR domain
// per shard) driven by an open-loop tenant swarm (svc/service.hpp):
// Zipfian keys, Poisson or fixed arrivals, coordinated-omission-safe
// latency, optional connection churn, and a --tenant-script of bad
// tenants (hot-key hammering, scan storms, stall-in-guard). The --slo
// assertions (svc/slo.hpp) are then evaluated over the victim latency
// histogram and the aggregate reclamation time series; any gated
// violation exits 6, a reclamation leak exits 3, usage errors exit 2.
//
//   ./fig_service --tenants 16 --svc-shards 4 --churn 200 \
//       --tenant-script 'stall:3@600ms+300ms,hot:7@700ms+300ms' \
//       --slo 'p99=50ms,unreclaimed<4x,recovery<1s' --json SERVICE.json
//
// CSV rows use the standard figure columns (structure = "cache",
// threads = tenants, stalled = tenants with a scripted stall window);
// the SLO verdicts go to stderr and into the --json report.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/figures.hpp"
#include "harness/provenance.hpp"
#include "harness/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"
#include "svc/slo.hpp"
#include "svc/tenant.hpp"

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

bool write_json(const std::string& path, const harness::cli_options& o,
                const service_config& cfg, const slo_spec& slo,
                const std::vector<scheme_report>& reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "--json: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"figure\": \"%s\",\n", kFigure);
  // None of the spec grammars admit quote or backslash characters, so
  // the strings embed verbatim (same stance as the --faults echo in
  // harness/figures.cpp).
  std::fprintf(
      f,
      "  \"config\": {\"shards\": %u, \"tenants\": %u, \"rate_ops_s\": "
      "%.0f, \"arrival\": \"%s\", \"zipf_theta\": %.3f, \"key_range\": "
      "%llu, \"prefill\": %zu, \"mix\": {\"insert\": %u, \"remove\": %u, "
      "\"get\": %u}, \"duration_ms\": %u, \"sample_ms\": %u, "
      "\"churn_ms\": %u, \"tenant_script\": \"%s\", \"slo\": \"%s\", "
      "\"seed\": %llu, \"retire_shards\": %u, %s},\n",
      cfg.shards, cfg.tenants, cfg.rate_ops_s,
      cfg.arrival == arrival_kind::fixed ? "fixed" : "poisson",
      cfg.zipf_theta, static_cast<unsigned long long>(cfg.key_range),
      cfg.prefill, cfg.insert_pct, cfg.remove_pct, cfg.get_pct,
      cfg.duration_ms, cfg.sample_ms, cfg.churn_period_ms,
      cfg.script != nullptr ? cfg.script->spec.c_str() : "",
      slo.text.c_str(), static_cast<unsigned long long>(o.seed), o.shards,
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
                 r.lag_p50_ns, r.lag_p99_ns,
                 static_cast<unsigned long long>(r.lag_max_ns));
    std::fprintf(f,
                 "     \"counters\": {\"scans\": %llu, \"steals\": %llu, "
                 "\"rearms\": %llu, \"finalizes\": %llu, "
                 "\"era_advances\": %llu, \"tid_acquires\": %llu},\n",
                 static_cast<unsigned long long>(r.obs.scans),
                 static_cast<unsigned long long>(r.obs.steals),
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
                   "\"dels\": %llu, \"scans\": %llu, \"retired\": %llu, "
                   "\"freed\": %llu}",
                   i == 0 ? "" : ", ",
                   static_cast<unsigned long long>(s.gets),
                   static_cast<unsigned long long>(s.hits),
                   static_cast<unsigned long long>(s.puts),
                   static_cast<unsigned long long>(s.dels),
                   static_cast<unsigned long long>(s.scans),
                   static_cast<unsigned long long>(s.retired),
                   static_cast<unsigned long long>(s.freed));
    }
    std::fprintf(f, "],\n     \"slo\": [");
    for (std::size_t i = 0; i < rep.verdicts.size(); ++i) {
      const slo_verdict& v = rep.verdicts[i];
      const char* kind = "";
      switch (v.item.kind) {
        case slo_kind::p50: kind = "p50"; break;
        case slo_kind::p90: kind = "p90"; break;
        case slo_kind::p99: kind = "p99"; break;
        case slo_kind::max_latency: kind = "max"; break;
        case slo_kind::unreclaimed: kind = "unreclaimed"; break;
        case slo_kind::recovery: kind = "recovery"; break;
      }
      std::fprintf(f,
                   "%s{\"item\": \"%s\", \"gated\": %s, \"checked\": %s, "
                   "\"pass\": %s, \"measured\": %.1f, \"limit\": %.1f}",
                   i == 0 ? "" : ", ", kind, v.gated ? "true" : "false",
                   v.checked ? "true" : "false", v.pass ? "true" : "false",
                   std::isinf(v.measured) ? -1.0 : v.measured, v.limit);
    }
    std::fprintf(f, "],\n     \"timeline\": [");
    harness::write_timeline_json(f, r.timeline);
    std::fprintf(f, "\n    ]}");
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "--json: error writing '%s'\n", path.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  harness::cli_options defaults;
  defaults.duration_ms = 2000;
  defaults.sample_ms = 20;
  const harness::cli_options o =
      harness::parse_cli(argc, argv, defaults, harness::kServiceFlags);

  service_config cfg;
  cfg.shards = o.svc_shards != 0 ? o.svc_shards : 4;
  cfg.tenants = o.tenants != 0 ? o.tenants : 16;
  // Default offered load: enough per tenant that the SLO windows hold a
  // meaningful sample count, low enough that CI boxes are not saturated.
  cfg.rate_ops_s =
      o.rate_ops_s >= 0 ? o.rate_ops_s : 3000.0 * cfg.tenants;
  cfg.arrival =
      o.arrival == "fixed" ? arrival_kind::fixed : arrival_kind::poisson;
  cfg.zipf_theta = o.skew >= 0 ? o.skew : 0.99;
  cfg.key_range = o.key_range;
  cfg.prefill = o.prefill;
  if (!o.mix.empty()) {  // default: service_config's read-mostly mix
    cfg.insert_pct = o.mix[0];
    cfg.remove_pct = o.mix[1];
    cfg.get_pct = o.mix[2];
  }
  cfg.duration_ms = o.duration_ms;
  cfg.sample_ms = o.sample_ms;
  cfg.seed = o.seed;
  cfg.churn_period_ms = o.churn_ms;

  tenant_plan script;
  if (!o.tenant_script.empty()) {
    std::string err;
    auto parsed = parse_tenant_plan(o.tenant_script, &err);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "--tenant-script: %s\n", err.c_str());
      return 2;
    }
    script = std::move(*parsed);
    if (!script.validate(cfg.tenants, &err)) {
      std::fprintf(stderr, "--tenant-script: %s\n", err.c_str());
      return 2;
    }
    if (script.last_end_ms() >= cfg.duration_ms) {
      std::fprintf(stderr,
                   "--tenant-script: the last window ends at %.0fms but "
                   "the run ends at %ums; extend --duration so recovery "
                   "is measurable\n",
                   script.last_end_ms(), cfg.duration_ms);
      return 2;
    }
    cfg.script = &script;
  }

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

  unsigned stall_tenants = 0;
  for (unsigned t = 0; t < cfg.tenants; ++t) {
    for (const behavior_event& e : script.events) {
      if (e.tenant == t && e.kind == behavior_kind::stall_in_guard) {
        ++stall_tenants;
        break;
      }
    }
  }

  // Lag tracking is always on here: the retire->free lag columns are the
  // per-shard blast-radius story told in time units, which is what this
  // report exists to show. Tracing flips on before any shard domain
  // exists so no ring registration races a worker.
  obs::set_lag_tracking(true);
  if (!o.trace.empty()) obs::set_tracing(true);

  harness::print_csv_header(kFigure, o.seed);
  std::vector<scheme_report> reports;
  std::vector<obs::metric_series> metric_rows;
  bool violated = false;
  for (const std::string& name : lineup) {
    harness::scheme_params p;
    p.retire_shards = o.shards;
    p.ack_threshold = 512;  // scaled to short runs, as in fig10a
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
    in.disturb_start_ms = script.first_start_ms();
    in.disturb_end_ms = script.last_end_ms();
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
        kFigure, "cache", name.c_str(), cfg.tenants, stall_tenants, 0, 0,
        r.mops, timeline_mean_unreclaimed(r.timeline),
        static_cast<double>(r.unreclaimed_peak),
        r.victim_hist.percentile(0.50), r.victim_hist.percentile(0.99),
        static_cast<double>(r.victim_hist.max()), r.lag_p50_ns,
        r.lag_p99_ns, static_cast<double>(r.lag_max_ns));
    metric_rows.push_back({name, r.obs});
    reports.push_back(std::move(rep));
  }

  int status = violated ? 6 : 0;
  if (violated) {
    std::fprintf(stderr, "SLO violated (spec: %s)\n", slo->text.c_str());
  }
  // A violation still writes the JSON: the series showing WHY the gate
  // tripped is exactly what a CI debugger needs.
  if (!o.json.empty() && !write_json(o.json, o, cfg, *slo, reports)) {
    status = 2;
  }
  if (!o.metrics.empty()) {
    std::string err;
    if (!obs::write_prometheus(o.metrics, metric_rows, &err)) {
      std::fprintf(stderr, "--metrics: %s\n", err.c_str());
      status = 2;
    }
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
