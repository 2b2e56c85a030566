// The canonical perf-trajectory sweep: one fixed-seed run over a pinned
// lineup of (cell, structure, scheme) points, written as a BENCH_<n>.json
// trajectory file (schema: src/harness/trajectory.hpp). Successive
// sessions commit successive BENCH files; bench/bench_diff compares any
// two with noise-aware thresholds, so the repo carries its own
// performance history instead of anecdotes.
//
// The lineup is deliberately small and stable — write-heavy and
// read-heavy set cells, a list cell, both containers, and one
// fault-injected cell — because trajectory points are only useful if the
// same points exist in every file. New cells may be appended; renaming or
// dropping one orphans the historical series.
//
//   sweep [--out path] [--threads n] [--duration ms] [--repeats n]
//         [--seed n] [--fastpath on|off] [--shards n|auto]
//         [--schemes a,b,...]
//
// --fastpath off disables the per-op fast path (slab allocator, guard
// entry amortization, sharded retire) so a single binary can measure its
// own before/after on the same machine.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/provenance.hpp"
#include "harness/registry.hpp"
#include "lab/fault_plan.hpp"
#include "smr/core/slab_alloc.hpp"

namespace {

using namespace hyaline;
using harness::scheme_params;
using harness::scheme_registry;
using harness::structure_kind;
using harness::workload_config;
using harness::workload_result;

/// One lineup cell: a named workload shape bound to a registry structure.
struct lineup_cell {
  const char* name;
  const char* structure;
  structure_kind kind;
  unsigned insert_pct, remove_pct, get_pct;  // set cells only
  std::uint64_t key_range;                   // set cells only
  std::size_t prefill;
  const char* faults;  // fault spec, "" = none (duration placeholder %u)
};

// The pinned lineup. Key ranges are contention-scaled for sub-second
// cells (the full paper ranges need --full durations to leave the cache
// warmup regime); what matters for trajectory tracking is that they never
// change between sessions.
constexpr lineup_cell kCells[] = {
    // Write-heavy set: the cell the per-op fast path targets first
    // (every op allocates or retires).
    {"set-write", "hashmap", structure_kind::set, 50, 50, 0, 4096, 2048, ""},
    // Read-mostly set: guard-entry cost dominates.
    {"set-read", "hashmap", structure_kind::set, 5, 5, 90, 4096, 2048, ""},
    // List under writes: long traversals, protect()-heavy.
    {"list-write", "list", structure_kind::set, 50, 50, 0, 512, 256, ""},
    // Containers: retire on every successful pop.
    {"msqueue", "msqueue", structure_kind::container, 0, 0, 0, 0, 256, ""},
    {"stack", "stack", structure_kind::container, 0, 0, 0, 0, 256, ""},
    // Fault-injected cell: one worker stalls in-guard for the first half
    // of the run; mops and unreclaimed_peak together track how the
    // scheme's robustness story evolves.
    {"set-stall", "hashmap", structure_kind::set, 50, 50, 0, 4096, 2048,
     "stall:0@0+%ums"},
};

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

/// Mechanism events per thousand ops over the whole cell run.
double per_kop(std::uint64_t events, std::uint64_t ops) {
  return ops == 0 ? 0.0 : 1e3 * static_cast<double>(events) /
                              static_cast<double>(ops);
}

struct out_point {
  std::string cell, structure, scheme;
  unsigned threads;
  double mops;
  double unreclaimed_peak;
  bool external;
  // How often each reclamation mechanism ran: a scan storm or a steal
  // loop shows here before it shows in mops.
  double scans_per_kop, steals_per_kop, finalizes_per_kop,
      era_advances_per_kop;
};

}  // namespace

int main(int argc, char** argv) {
  harness::cli_options defaults;
  defaults.out = "BENCH.json";
  defaults.threads = {2};
  defaults.duration_ms = 200;
  const harness::cli_options o =
      harness::parse_cli(argc, argv, defaults, harness::kSweepFlags);
  const unsigned threads = o.threads[0];

  // Resolve the fast path before the first node is allocated: the slab
  // contract forbids toggling with live slab nodes, so the switch is
  // flipped exactly once, here.
  if (o.fastpath) {
    smr::core::slab::set_enabled(true);
  } else {
    smr::core::slab::set_enabled(false);
  }
  const unsigned shards = o.fastpath ? o.shards : 0;
  const std::uint32_t entry_burst = o.fastpath ? 64 : 0;

  // The SMR lineup is the nine core schemes; external baselines (the
  // coarse-mutex cells) ride along labeled, never compared as SMR.
  const scheme_registry& reg = scheme_registry::instance();
  std::vector<std::string> lineup;
  for (const auto& scheme : reg.schemes()) {
    if (scheme.core_lineup || scheme.external_baseline) {
      lineup.push_back(scheme.name);
    }
  }
  if (!harness::validate_scheme_filter(o, lineup)) return 2;

  std::vector<out_point> points;
  int status = 0;
  for (const std::string& name : lineup) {
    if (!o.scheme_enabled(name)) continue;
    const scheme_registry::entry& scheme = *reg.find(name);

    for (const lineup_cell& lc : kCells) {
      // External baselines register their own structures; map the set and
      // container cells onto them so the floor shows up beside every
      // comparable workload shape.
      const char* structure = lc.structure;
      if (scheme.external_baseline) {
        // The stall cell tracks SMR robustness (unreclaimed growth under a
        // stalled reader); immediate reclamation has nothing to defer.
        if (lc.faults[0] != '\0') continue;
        structure = lc.kind == structure_kind::set ? "lockedset"
                                                   : "lockedqueue";
        if (std::strcmp(lc.name, "list-write") == 0) continue;
        if (std::strcmp(lc.name, "stack") == 0) continue;  // FIFO only
      }
      harness::runner_fn run = scheme.runner_for(structure);
      if (run == nullptr) continue;  // HP/HE x bonsai-class exclusions

      workload_config cfg;
      cfg.threads = threads;
      cfg.duration_ms = o.duration_ms;
      cfg.repeats = o.repeats;
      cfg.seed = o.seed;
      cfg.prefill = lc.prefill;
      if (lc.kind == structure_kind::set) {
        cfg.key_range = lc.key_range;
        cfg.insert_pct = lc.insert_pct;
        cfg.remove_pct = lc.remove_pct;
        cfg.get_pct = lc.get_pct;
      }

      lab::fault_plan plan;
      if (lc.faults[0] != '\0') {
        char spec[64];
        std::snprintf(spec, sizeof spec, lc.faults, o.duration_ms / 2);
        std::string err;
        auto parsed = lab::parse_fault_plan(spec, &err);
        if (!parsed.has_value() ||
            !(plan = std::move(*parsed)).validate_tids(threads, &err)) {
          std::fprintf(stderr, "internal fault spec '%s': %s\n", spec,
                       err.c_str());
          return 2;
        }
        cfg.faults = &plan;
      }

      scheme_params p;
      p.max_threads = plan.lease_headroom(threads);
      p.retire_shards = shards;
      p.entry_burst = entry_burst;
      p.ack_threshold = 512;  // scaled to short runs, as in fig10a

      const workload_result r = run(p, cfg);
      // A broken ledger keeps the point but fails the run: the numbers
      // are recorded, not trusted.
      if (!harness::ledgers_close(r, lc.kind == structure_kind::container,
                                  scheme.name + " x " + structure + " [" +
                                      lc.name + "]")) {
        status = 4;
      }
      points.push_back({lc.name, structure, scheme.name, threads, r.mops,
                        static_cast<double>(r.unreclaimed_peak),
                        scheme.external_baseline,
                        per_kop(r.obs.scans, r.total_ops),
                        per_kop(r.obs.steals, r.total_ops),
                        per_kop(r.obs.finalizes, r.total_ops),
                        per_kop(r.obs.era_advances, r.total_ops)});
      std::fprintf(stderr, "%-10s %-10s x %-14s %8s mops  peak=%llu\n",
                   lc.name, structure, scheme.name.c_str(),
                   fixed(r.mops, 3).c_str(),
                   static_cast<unsigned long long>(r.unreclaimed_peak));
    }
  }

  std::string j = "{\n";
  j += "  \"bench\": \"sweep\",\n";
  j += "  \"version\": 1,\n";
  j += "  \"seed\": " + std::to_string(o.seed) + ",\n";
  j += "  " + harness::provenance_json() + ",\n";
  j += "  \"config\": {\"fastpath\": \"" +
       std::string(o.fastpath ? "on" : "off") +
       "\", \"shards\": " + std::to_string(shards) +
       ", \"duration_ms\": " + std::to_string(o.duration_ms) +
       ", \"repeats\": " + std::to_string(o.repeats) +
       ", \"threads\": " + std::to_string(threads) + "},\n";
  j += "  \"cells\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const out_point& pt = points[i];
    j += "    {\"cell\": \"" + pt.cell + "\", \"structure\": \"" +
         pt.structure + "\", \"scheme\": \"" + pt.scheme +
         "\", \"threads\": " + std::to_string(pt.threads) +
         ", \"mops\": " + fixed(pt.mops, 4) +
         ", \"unreclaimed_peak\": " + fixed(pt.unreclaimed_peak, 0) +
         ", \"external\": " + (pt.external ? "true" : "false") +
         ", \"scans_per_kop\": " + fixed(pt.scans_per_kop, 4) +
         ", \"steals_per_kop\": " + fixed(pt.steals_per_kop, 4) +
         ", \"finalizes_per_kop\": " + fixed(pt.finalizes_per_kop, 4) +
         ", \"era_advances_per_kop\": " +
         fixed(pt.era_advances_per_kop, 4) + "}";
    j += i + 1 == points.size() ? "\n" : ",\n";
  }
  j += "  ]\n}\n";

  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", o.out.c_str());
    return 2;
  }
  std::fputs(j.c_str(), f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "write error on '%s'\n", o.out.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %zu points to %s\n", points.size(),
               o.out.c_str());
  return status;
}
