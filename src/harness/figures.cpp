#include "harness/figures.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "harness/provenance.hpp"
#include "harness/registry.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "obs/trace.hpp"

namespace hyaline::harness {
namespace {

/// Timeline figures' telemetry cadence.
constexpr unsigned kTimelineSampleMs = 10;

/// Collects every data point of a figure run and mirrors it to the CSV
/// stream, so the same run can be written out as a machine-readable JSON
/// trajectory file (--json): per-(structure, scheme) series of throughput
/// and unreclaimed-node counts.
class figure_sink {
 public:
  figure_sink(const char* figure, std::uint64_t seed)
      : figure_(figure), seed_(seed) {}

  /// Emit the CSV header. Called by the figure runners only after the
  /// --schemes filter validated, so a rejected filter produces no stdout
  /// (scripts may capture stdout straight into a .csv).
  void header() { print_csv_header(figure_, seed_, detail::kLatencyEvery); }

  void row(const char* structure, const char* scheme, unsigned threads,
           unsigned stalled, unsigned producers, unsigned consumers,
           const workload_result& r) {
    print_csv_row(figure_, structure, scheme, threads, stalled, producers,
                  consumers, r.mops, r.unreclaimed_avg,
                  static_cast<double>(r.unreclaimed_peak), r.p50_ns,
                  r.p99_ns, static_cast<double>(r.max_ns), r.lag.p50_ns,
                  r.lag.p99_ns, static_cast<double>(r.lag.max_ns));
    rows_.push_back(
        {structure, scheme, threads, stalled, producers, consumers, r});
  }

  /// Attach the resolved run configuration, emitted as the JSON
  /// "config" metadata block (`body` is the object's inner text).
  void set_config(std::string body) { config_ = std::move(body); }

  /// Group the rows into per-(structure, scheme) series and write them as
  /// JSON. Returns false (with a message on stderr) if the file cannot be
  /// written.
  bool write_json(const std::string& path) const {
    return write_output("--json", path,
                        [this](std::FILE* f) { write_series(f); });
  }

 private:
  void write_series(std::FILE* f) const {
    // Series keys in first-appearance order; rows from interleaved sweeps
    // (the robustness figure iterates stalled counts outermost) regroup
    // cleanly.
    std::vector<std::pair<std::string, std::string>> keys;
    for (const row_t& r : rows_) {
      std::pair<std::string, std::string> k{r.structure, r.scheme};
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    std::fprintf(f, "{\n  \"figure\": \"%s\",\n", figure_);
    if (!config_.empty()) {
      std::fprintf(f, "  \"config\": {%s},\n", config_.c_str());
    }
    std::fprintf(f, "  \"series\": [");
    bool first_series = true;
    for (const auto& [structure, scheme] : keys) {
      std::fprintf(f, "%s\n    {\"structure\": \"%s\", \"scheme\": \"%s\",",
                   first_series ? "" : ",", structure.c_str(),
                   scheme.c_str());
      first_series = false;
      std::fprintf(f, " \"points\": [");
      bool first_point = true;
      const std::vector<lab::sample_point>* timeline = nullptr;
      for (const row_t& row : rows_) {
        if (row.structure != structure || row.scheme != scheme) continue;
        const workload_result& r = row.r;
        if (timeline == nullptr && !r.timeline.empty()) {
          timeline = &r.timeline;
        }
        std::fprintf(f,
                     "%s\n      {\"threads\": %u, \"stalled\": %u, "
                     "\"producers\": %u, \"consumers\": %u, "
                     "\"mops\": %.6f, \"unreclaimed\": %.3f, "
                     "\"unreclaimed_peak\": %llu, "
                     "\"p50_ns\": %.0f, \"p90_ns\": %.0f, "
                     "\"p99_ns\": %.0f, \"max_ns\": %llu, "
                     "\"lag_p50_ns\": %.0f, \"lag_p99_ns\": %.0f, "
                     "\"lag_max_ns\": %llu, "
                     "\"lag_count\": %llu, \"lag_bucket\": [",
                     first_point ? "" : ",", row.threads, row.stalled,
                     row.producers, row.consumers, r.mops,
                     r.unreclaimed_avg,
                     static_cast<unsigned long long>(r.unreclaimed_peak),
                     r.p50_ns, r.p90_ns, r.p99_ns,
                     static_cast<unsigned long long>(r.max_ns),
                     r.lag.p50_ns, r.lag.p99_ns,
                     static_cast<unsigned long long>(r.lag.max_ns),
                     static_cast<unsigned long long>(r.obs.lag_count));
        // Full log2-bucket histogram (bucket b covers [2^(b-1), 2^b-1]
        // ns; bucket 0 is exact zero): percentiles hide the tail *mass*,
        // which is the quantity the robustness gate compares.
        for (std::size_t b = 0; b < std::size(r.obs.lag_bucket); ++b) {
          std::fprintf(f, "%s%llu", b == 0 ? "" : ",",
                       static_cast<unsigned long long>(r.obs.lag_bucket[b]));
        }
        std::fprintf(f, "]}");
        first_point = false;
      }
      std::fprintf(f, "\n    ]");
      // A series' telemetry (timeline figures) rides along after its
      // points.
      if (timeline != nullptr) {
        std::fprintf(f, ",\n    \"timeline\": [");
        write_timeline_json(f, *timeline);
        std::fprintf(f, "\n    ]");
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
  }

  struct row_t {
    std::string structure;
    std::string scheme;
    unsigned threads;
    unsigned stalled;
    unsigned producers;
    unsigned consumers;
    workload_result r;
  };

  const char* figure_;
  std::uint64_t seed_;
  std::string config_;
  std::vector<row_t> rows_;
};

/// The paper's scheme line-up, straight from the registry (entries are in
/// plotting order). Under the LL/SC figures, schemes with a registered
/// emulated-LL/SC twin swap to it.
std::vector<std::string> matrix_lineup(const scheme_registry& reg,
                                       bool llsc) {
  std::vector<std::string> out;
  for (const scheme_registry::entry& e : reg.schemes()) {
    if (!e.core_lineup) continue;
    out.push_back(llsc && !e.llsc_variant.empty() ? e.llsc_variant : e.name);
  }
  return out;
}

// The list benchmark uses a smaller key range / prefill than the map and
// trees: a 100k-key sorted list makes every operation a ~25k-node walk,
// which is why the paper's list throughput is three orders of magnitude
// below the map's. We keep the range proportional but bounded so the
// default (CI-scale) run finishes; --full restores paper scale via the
// regular flags.
void scale_for_list(cli_options& o) {
  if (o.given.has(flag::full)) return;
  if (o.key_range > 2048) o.key_range = 2048;
  if (o.prefill > 1024) o.prefill = 1024;
}

/// Workload shaped by the spec's mix and the shared CLI knobs.
workload_config base_cfg(const figure_spec& spec, const cli_options& o) {
  workload_config cfg;
  cfg.insert_pct = spec.insert_pct;
  cfg.remove_pct = spec.remove_pct;
  cfg.get_pct = spec.get_pct;
  cfg.duration_ms = o.duration_ms;
  cfg.repeats = o.repeats;
  cfg.key_range = o.key_range;
  cfg.prefill = o.prefill;
  cfg.seed = o.seed;
  return cfg;
}

int run_matrix(const figure_spec& spec, const cli_options& o,
               figure_sink& sink) {
  const scheme_registry& reg = scheme_registry::instance();

  std::vector<std::string> labels = matrix_lineup(reg, spec.llsc);
  // The line-up is only the default plot order: any other registered scheme
  // (e.g. the Hyaline(dwcas) head-policy variant) runs on demand when named
  // in --schemes. Exception: on LL/SC figures a scheme whose emulated-LL/SC
  // twin replaced it in the line-up is NOT appendable under its base name —
  // silently measuring the packed-CAS head under the LL/SC figure tag would
  // corrupt the series; validation rejects it and lists the valid labels.
  for (const std::string& want : o.schemes) {
    if (std::find(labels.begin(), labels.end(), want) != labels.end()) {
      continue;
    }
    const scheme_registry::entry* e = reg.find(want);
    if (e == nullptr) continue;  // rejected by validation below
    if (spec.llsc && !e->llsc_variant.empty()) continue;
    labels.push_back(want);
  }
  if (!validate_scheme_filter(o, labels)) return 2;
  sink.header();

  const workload_config base = base_cfg(spec, o);

  struct srow {
    const char* structure;
    bool list_scale;
  };
  static constexpr srow kStructures[] = {{"list", true},
                                         {"bonsai", false},
                                         {"hashmap", false},
                                         {"nmtree", false}};

  for (const srow& st : kStructures) {
    cli_options so = o;
    if (st.list_scale) scale_for_list(so);
    for (const std::string& scheme : labels) {
      if (!o.scheme_enabled(scheme)) continue;
      runner_fn run = reg.runner(scheme, st.structure);
      if (run == nullptr) continue;  // HP/HE × bonsai, as in the paper
      for (unsigned t : so.threads) {
        scheme_params p;
        // The workers, the stalled threads and this one, which prefills.
        p.slot_threads = t + base.stalled_threads + 1;
        workload_config cfg = base;
        cfg.threads = t;
        cfg.key_range = so.key_range;
        cfg.prefill = so.prefill;
        const workload_result r = run(p, cfg);
        sink.row(st.structure, scheme.c_str(), t, cfg.stalled_threads, 0, 0,
                 r);
      }
    }
  }
  return 0;
}

int run_robustness(const figure_spec& spec, const cli_options& o,
                   figure_sink& sink) {
  const scheme_registry& reg = scheme_registry::instance();
  const unsigned active = o.threads.empty() ? 4 : o.threads[0];

  /// One row per plotted series. The sweep needs a slot count that does
  /// NOT scale with the stalled-thread count, so the "ran out of slots"
  /// cliff of Figure 10a is reproducible; the adaptive series re-runs
  /// Hyaline-S with §4.3 slot-directory growth enabled.
  struct rrow {
    const char* scheme;
    const char* label;
    std::size_t max_slots;
  };
  static constexpr rrow kRows[] = {
      {"Epoch", "Epoch", 0},
      {"Hyaline", "Hyaline", 0},
      {"Hyaline-1", "Hyaline-1", 0},
      {"Hyaline-S", "Hyaline-S", 0},
      {"Hyaline-S", "Hyaline-S(adaptive)", 4096},
      {"Hyaline-1S", "Hyaline-1S", 0},
      {"IBR", "IBR", 0},
      {"HE", "HE", 0},
      {"HP", "HP", 0},
  };

  std::vector<std::string> labels;
  for (const rrow& r : kRows) labels.push_back(r.label);
  if (!validate_scheme_filter(o, labels)) return 2;
  sink.header();

  const std::size_t fixed_slots = std::bit_ceil(std::size_t{active}) * 2;
  for (unsigned stalled : o.stalled) {
    for (const rrow& row : kRows) {
      if (!o.scheme_enabled(row.label)) continue;
      workload_config cfg = base_cfg(spec, o);
      cfg.threads = active;
      cfg.stalled_threads = stalled;
      scheme_params p;
      p.slots = fixed_slots;
      p.max_slots = row.max_slots;   // 0 = capped; §4.3 growth otherwise
      p.ack_threshold = kShortRunAckThreshold;
      runner_fn run = reg.runner(row.scheme, "hashmap");
      if (run == nullptr) {  // stale row table vs registry rename
        std::fprintf(stderr, "skipping %s: no hashmap runner registered\n",
                     row.label);
        continue;
      }
      const workload_result r = run(p, cfg);
      sink.row("hashmap", row.label, active, stalled, 0, 0, r);
    }
  }
  return 0;
}

int run_trim(const figure_spec& spec, const cli_options& o,
             figure_sink& sink) {
  const scheme_registry& reg = scheme_registry::instance();

  struct trow {
    const char* scheme;
    bool use_trim;
    const char* label;
  };
  static constexpr trow kRows[] = {
      {"Hyaline", true, "Hyaline(trim)"},
      {"Hyaline-S", true, "Hyaline-S(trim)"},
      {"Hyaline", false, "Hyaline"},
      {"Hyaline-S", false, "Hyaline-S"},
  };

  std::vector<std::string> labels;
  for (const trow& r : kRows) labels.push_back(r.label);
  if (!validate_scheme_filter(o, labels)) return 2;
  sink.header();

  for (const trow& row : kRows) {
    // Accept the exact label or the bare scheme name in --schemes.
    if (!o.scheme_enabled(row.label) && !o.scheme_enabled(row.scheme)) {
      continue;
    }
    for (unsigned t : o.threads) {
      workload_config cfg = base_cfg(spec, o);
      cfg.threads = t;
      cfg.use_trim = row.use_trim;
      scheme_params p;
      p.slots = spec.slot_cap;
      runner_fn run = reg.runner(row.scheme, "hashmap");
      if (run == nullptr) {  // stale row table vs registry rename
        std::fprintf(stderr, "skipping %s: no hashmap runner registered\n",
                     row.label);
        continue;
      }
      const workload_result r = run(p, cfg);
      sink.row("hashmap", row.label, t, 0, 0, 0, r);
    }
  }
  return 0;
}

/// Container sweep: both containers × the scheme line-up × the
/// (producers, consumers) pairs. Every data point doubles as a
/// correctness check — a broken container or scheme pairing fails the
/// conservation ledger or leaks, and the binary exits non-zero instead of
/// emitting a plausible-looking row.
int run_container(const figure_spec& spec, const cli_options& o,
                  figure_sink& sink) {
  const scheme_registry& reg = scheme_registry::instance();

  // Default line-up: the paper's nine. Containers run under every
  // registered scheme, so any other name (the head-policy variants) is
  // appendable through --schemes.
  std::vector<std::string> labels = matrix_lineup(reg, /*llsc=*/false);
  for (const std::string& want : o.schemes) {
    if (std::find(labels.begin(), labels.end(), want) != labels.end()) {
      continue;
    }
    if (reg.find(want) != nullptr) labels.push_back(want);
  }
  if (!validate_scheme_filter(o, labels)) return 2;
  sink.header();

  const workload_config base = base_cfg(spec, o);

  static constexpr const char* kStructures[] = {"msqueue", "stack"};
  for (const char* structure : kStructures) {
    for (const std::string& scheme : labels) {
      if (!o.scheme_enabled(scheme)) continue;
      runner_fn run = reg.runner(scheme, structure);
      if (run == nullptr) continue;  // unreachable: all schemes qualify
      for (std::size_t i = 0; i < o.producers.size(); ++i) {
        workload_config cfg = base;
        cfg.producers = o.producers[i];
        cfg.consumers = o.consumers[i];
        cfg.threads = cfg.producers + cfg.consumers;
        scheme_params p;
        p.slot_threads = cfg.threads + 1;  // + this thread, which prefills
        const workload_result r = run(p, cfg);
        const std::string where = scheme + " x " + structure + " (" +
                                  std::to_string(cfg.producers) + "p/" +
                                  std::to_string(cfg.consumers) + "c)";
        if (!ledgers_close(r, /*container=*/true, where)) return 3;
        sink.row(structure, scheme.c_str(), cfg.threads, 0, cfg.producers,
                 cfg.consumers, r);
      }
    }
  }
  return 0;
}

/// Robustness lab: one structure, single thread count, scheme line-up,
/// scripted faults, time-series telemetry. Every robust scheme's series
/// is recovery-checked — after the last fault clears, unreclaimed must
/// return to within 2x its pre-fault baseline (lab::check_recovery) —
/// and container runs keep the conservation/leak gates of run_container,
/// so a timeline run is a correctness check, not just a plot.
int run_timeline(const figure_spec& spec, const cli_options& o,
                 figure_sink& sink) {
  const scheme_registry& reg = scheme_registry::instance();

  // Timeline runs report the retire->free lag columns (the stall-window
  // story is exactly what lag attribution exists to show); sweeps and
  // matrix figures leave the bit off so the perf gate measures the
  // untracked path.
  obs::set_lag_tracking(true);

  const std::string structure =
      o.structure.empty() ? "hashmap" : o.structure;
  const auto kind = reg.kind_of(structure);
  if (!kind.has_value()) {
    std::string valid;
    for (const auto& s : reg.structures()) {
      if (!valid.empty()) valid += ", ";
      valid += s.name;
    }
    std::fprintf(stderr, "unknown structure '%s'; registered: %s\n",
                 structure.c_str(), valid.c_str());
    return 2;
  }
  const bool container = *kind == structure_kind::container;
  if (container && o.given.has(flag::range)) {
    std::fprintf(stderr,
                 "--range is a set-structure option; '%s' is a "
                 "container\n",
                 structure.c_str());
    return 2;
  }

  const unsigned threads = o.threads.empty() ? 4 : o.threads[0];

  lab::fault_plan plan;
  if (!load_fault_plan(o, threads, lab::fault_loop::workload, &plan)) {
    return 2;
  }

  // Line-up schemes that can drive this structure, plus any other
  // registered scheme named in --schemes (as in run_container).
  std::vector<std::string> labels;
  for (const std::string& name : matrix_lineup(reg, /*llsc=*/false)) {
    if (reg.runner(name, structure) != nullptr) labels.push_back(name);
  }
  for (const std::string& want : o.schemes) {
    if (std::find(labels.begin(), labels.end(), want) != labels.end()) {
      continue;
    }
    if (reg.runner(want, structure) != nullptr) labels.push_back(want);
  }
  if (!validate_scheme_filter(o, labels)) return 2;
  sink.header();

  int status = 0;
  for (const std::string& scheme : labels) {
    if (!o.scheme_enabled(scheme)) continue;
    workload_config cfg = base_cfg(spec, o);
    cfg.threads = threads;
    cfg.sample_ms = kTimelineSampleMs;
    cfg.faults = plan.empty() ? nullptr : &plan;
    scheme_params p;
    p.slot_threads = threads + 1;  // + this thread, which prefills
    p.ack_threshold = kShortRunAckThreshold;
    const workload_result r =
        reg.runner(scheme, structure)(p, cfg);
    const thread_split split =
        container ? container_split(cfg) : thread_split{};
    if (container && !ledgers_close(r, true, scheme + " x " + structure)) {
      return 3;
    }
    sink.row(structure.c_str(), scheme.c_str(), threads, 0,
             split.producers, split.consumers, r);

    const scheme_registry::entry* e = reg.find(scheme);
    const auto last_end = plan.last_end_ms();
    if (e != nullptr && e->caps.robust && !plan.empty() &&
        last_end.has_value()) {
      const lab::recovery_verdict v = lab::check_recovery(
          r.timeline, plan.first_start_ms(), *last_end, o.duration_ms);
      if (!v.checked) {
        std::fprintf(stderr, "%s x %s: recovery unchecked: %s\n",
                     scheme.c_str(), structure.c_str(), v.why_unchecked);
      } else if (!v.recovered) {
        std::fprintf(stderr,
                     "%s x %s: FAILED to recover — unreclaimed settled at "
                     "%.1f after the faults vs pre-fault baseline %.1f "
                     "(limit %.1f)\n",
                     scheme.c_str(), structure.c_str(), v.post, v.baseline,
                     v.limit);
        status = 4;
      }
    }
  }
  return status;
}

/// Resolve a container figure's (producers, consumers) pair list:
/// explicit lists are zipped, a singleton broadcasts, the figure's
/// defaults fill the gaps.
bool resolve_container_pairs(const figure_spec& spec, cli_options& o) {
  if (o.producers.empty() && o.consumers.empty()) {
    o.producers = spec.default_producers;
    o.consumers = spec.default_consumers;
  }
  if (o.producers.empty()) o.producers = o.consumers;
  if (o.consumers.empty()) o.consumers = o.producers;
  if (o.producers.size() != o.consumers.size()) {
    if (o.producers.size() == 1) {
      o.producers.assign(o.consumers.size(), o.producers[0]);
    } else if (o.consumers.size() == 1) {
      o.consumers.assign(o.producers.size(), o.consumers[0]);
    } else {
      std::fprintf(stderr,
                   "--producers and --consumers must be the same length "
                   "(or one a singleton to broadcast); got %zu vs %zu\n",
                   o.producers.size(), o.consumers.size());
      return false;
    }
  }
  for (std::size_t i = 0; i < o.producers.size(); ++i) {
    if (o.producers[i] == 0 && o.consumers[i] == 0) {
      std::fprintf(stderr,
                   "sweep point %zu has 0 producers and 0 consumers\n", i);
      return false;
    }
  }
  // Dedupe repeated (producers, consumers) pairs, same rationale as the
  // --threads/--schemes dedupe in parse_cli: a duplicate sweep point
  // would silently emit an identical series point twice.
  std::vector<std::pair<unsigned, unsigned>> unique;
  for (std::size_t i = 0; i < o.producers.size(); ++i) {
    const std::pair<unsigned, unsigned> pc{o.producers[i], o.consumers[i]};
    if (std::find(unique.begin(), unique.end(), pc) != unique.end()) {
      std::fprintf(stderr,
                   "--producers/--consumers: ignoring duplicate sweep "
                   "point %u,%u\n",
                   pc.first, pc.second);
    } else {
      unique.push_back(pc);
    }
  }
  o.producers.clear();
  o.consumers.clear();
  for (const auto& [p, c] : unique) {
    o.producers.push_back(p);
    o.consumers.push_back(c);
  }
  return true;
}

void append_list(std::string& s, const char* key,
                 const std::vector<unsigned>& v) {
  s += "\"";
  s += key;
  s += "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ", ";
    s += std::to_string(v[i]);
  }
  s += "], ";
}

/// The resolved run configuration as the inner text of a JSON object —
/// the --json metadata block that makes a trajectory file self-describing
/// (without it, reproducing a series means reverse-engineering which CLI
/// flags produced it).
std::string config_json(const figure_spec& spec, const cli_options& o) {
  const workload_config base = base_cfg(spec, o);
  // Whether this run's workload is container-shaped (no key_range/mix):
  // the container figure kind, or a timeline over a container structure.
  const std::string tl_structure =
      o.structure.empty() ? "hashmap" : o.structure;
  const bool timeline = spec.kind == figure_kind::timeline;
  const bool container =
      spec.kind == figure_kind::container ||
      (timeline && scheme_registry::instance().kind_of(tl_structure) ==
                       structure_kind::container);
  std::string s;
  if (timeline) {
    // Timeline runs name their one structure, thread count, fault
    // schedule and cadence. The spec grammar has no quote/backslash
    // characters, so the string embeds verbatim.
    s += "\"structure\": \"" + tl_structure + "\", ";
    s += "\"threads\": " +
         std::to_string(o.threads.empty() ? 4 : o.threads[0]) + ", ";
    s += "\"faults\": \"" + o.faults + "\", ";
    s += "\"sample_ms\": " + std::to_string(kTimelineSampleMs) + ", ";
  } else if (container) {
    s += "\"structure_kind\": \"container\", ";
    append_list(s, "producers", o.producers);
    append_list(s, "consumers", o.consumers);
  } else {
    s += "\"structure_kind\": \"set\", ";
    append_list(s, "threads", o.threads);
    append_list(s, "stalled", o.stalled);
  }
  if (!container) {
    s += "\"mix\": {\"insert\": " + std::to_string(base.insert_pct) +
         ", \"remove\": " + std::to_string(base.remove_pct) +
         ", \"get\": " + std::to_string(base.get_pct) + "}, ";
    s += "\"key_range\": " + std::to_string(base.key_range) + ", ";
    // Matrix figures cap the list series' range/prefill (scale_for_list);
    // record the override or the metadata would misdescribe that series.
    cli_options scaled = o;
    scale_for_list(scaled);
    if (spec.kind == figure_kind::matrix &&
        (scaled.key_range != o.key_range || scaled.prefill != o.prefill)) {
      s += "\"list_scale\": {\"key_range\": " +
           std::to_string(scaled.key_range) +
           ", \"prefill\": " + std::to_string(scaled.prefill) + "}, ";
    }
  }
  s += "\"prefill\": " + std::to_string(base.prefill) + ", ";
  s += "\"duration_ms\": " + std::to_string(base.duration_ms) + ", ";
  s += "\"repeats\": " + std::to_string(base.repeats) + ", ";
  s += "\"sample_every\": " + std::to_string(kSampleEvery) + ", ";
  s += "\"lat_sample\": " + std::to_string(detail::kLatencyEvery) + ", ";
  s += "\"seed\": " + std::to_string(base.seed) + ", ";
  // Build/machine stamp: revision, compiler, CPU — the fields that decide
  // whether two trajectory files are comparable at all.
  s += provenance_json();
  return s;
}

}  // namespace

void write_timeline_json(std::FILE* f,
                         const std::vector<lab::sample_point>& points) {
  bool first = true;
  for (const lab::sample_point& p : points) {
    std::fprintf(f,
                 "%s\n      {\"t_ms\": %.2f, \"mops\": %.6f, \"ops\": %llu, "
                 "\"retired\": %llu, \"freed\": %llu, \"unreclaimed\": %llu, "
                 "\"active_threads\": %u}",
                 first ? "" : ",", p.t_ms, p.mops,
                 static_cast<unsigned long long>(p.ops),
                 static_cast<unsigned long long>(p.retired),
                 static_cast<unsigned long long>(p.freed),
                 static_cast<unsigned long long>(p.unreclaimed),
                 p.active_threads);
    first = false;
  }
}

flag_set figure_flags(figure_kind kind) {
  switch (kind) {
    case figure_kind::robustness:
      return kRobustnessFlags;
    case figure_kind::container:
      return kContainerFlags;
    case figure_kind::timeline:
      return kTimelineFlags;
    case figure_kind::matrix:
    case figure_kind::trim:
      break;
  }
  return kFigureFlags;
}

int run_figure(const figure_spec& spec, int argc, char** argv) {
  cli_options defaults;
  defaults.threads = spec.default_threads;
  defaults.stalled = spec.default_stalled;
  if (spec.default_duration_ms != 0) {
    defaults.duration_ms = spec.default_duration_ms;
  }
  cli_options o = parse_cli(argc, argv, defaults, figure_flags(spec.kind));
  if (spec.kind == figure_kind::container &&
      !resolve_container_pairs(spec, o)) {
    return 2;
  }
  figure_sink sink(spec.name, o.seed);
  sink.set_config(config_json(spec, o));
  // Tracing flips on before any domain exists and exports after the last
  // worker joined — the rings are only ever read quiescent.
  if (!o.trace.empty()) obs::set_tracing(true);
  int status = 2;
  switch (spec.kind) {
    case figure_kind::matrix:
      status = run_matrix(spec, o, sink);
      break;
    case figure_kind::robustness:
      status = run_robustness(spec, o, sink);
      break;
    case figure_kind::trim:
      status = run_trim(spec, o, sink);
      break;
    case figure_kind::container:
      status = run_container(spec, o, sink);
      break;
    case figure_kind::timeline:
      status = run_timeline(spec, o, sink);
      break;
  }
  // A failed recovery check (status 4) still writes the JSON: the series
  // showing WHY the check failed is exactly what a CI debugger needs.
  if ((status == 0 || status == 4) && !o.json.empty() &&
      !sink.write_json(o.json)) {
    status = 2;
  }
  // Same rule for the event trace — a failed run's trace is the debugging
  // artifact, so only a write error downgrades the status.
  if ((status == 0 || status == 4) && !o.trace.empty()) {
    std::string err;
    if (!obs::write_chrome_trace(o.trace, &err)) {
      std::fprintf(stderr, "--trace: %s\n", err.c_str());
      status = 2;
    }
  }
  return status;
}

}  // namespace hyaline::harness
