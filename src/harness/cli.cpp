#include "harness/cli.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/topology.hpp"

namespace hyaline::harness {
namespace {

/// A whole-string unsigned number in [min, T's max]: no sign, no leading
/// space, no trailing characters (`3x`, `1e5` are rejected, not cut
/// short). Base 0 also takes hex.
template <class T>
bool to_uint(const char* s, T* out, std::uint64_t min = 0, int base = 10) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, base);
  if (*end != '\0' || errno == ERANGE || v < min ||
      v > std::numeric_limits<T>::max()) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

bool to_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// A comma-separated list of counts, each checked as by to_uint.
bool to_list(const char* s, std::vector<unsigned>* out) {
  out->clear();
  for (;;) {
    const char* comma = std::strchr(s, ',');
    const std::string item = comma != nullptr ? std::string(s, comma) : s;
    unsigned v = 0;
    if (!to_uint(item.c_str(), &v)) return false;
    out->push_back(v);
    if (comma == nullptr) return true;
    s = comma + 1;
  }
}

std::vector<std::string> parse_names(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

// Setters for the common value shapes, bound to one cli_options field.
template <auto M, std::uint64_t Min = 0>
bool set_uint(cli_options& o, const char* v) {
  return to_uint(v, &(o.*M), Min);
}
template <auto M>
bool set_list(cli_options& o, const char* v) {
  return to_list(v, &(o.*M));
}
template <auto M>
bool set_text(cli_options& o, const char* v) {
  o.*M = v;
  return true;
}

/// One flag: its name, value syntax (nullptr for a switch), help line,
/// and `set`, which checks the value and stores it — false rejects it.
struct flag_row {
  flag id;
  const char* name;
  const char* value;
  const char* help;
  bool (*set)(cli_options& o, const char* v);
};

using O = cli_options;

constexpr flag_row kFlags[] = {
    {flag::threads, "--threads", "a,b,...", "thread counts to sweep",
     set_list<&O::threads>},
    {flag::thread_count, "--threads", "n", "worker thread count (>= 1)",
     [](O& o, const char* v) {
       o.threads.assign(1, 0);
       return to_uint(v, &o.threads[0], 1);
     }},
    {flag::stalled, "--stalled", "a,b,...", "stalled-thread counts to sweep",
     set_list<&O::stalled>},
    {flag::duration, "--duration", "ms", "run time per data point (>= 1)",
     set_uint<&O::duration_ms, 1>},
    {flag::repeats, "--repeats", "n",
     "runs averaged per data point (>= 1; paper: 5)",
     set_uint<&O::repeats, 1>},
    {flag::prefill, "--prefill", "n", "initial element count (paper: 50000)",
     set_uint<&O::prefill>},
    {flag::range, "--range", "n", "key range (paper: 100000)",
     set_uint<&O::key_range>},
    {flag::schemes, "--schemes", "a,b,...",
     "run only these registered schemes",
     [](O& o, const char* v) {
       o.schemes = parse_names(v);
       return true;
     }},
    // A mix that does not sum to 100 would silently skew the op
    // distribution (the dice remainder falls through to get). Summed in
    // 64 bits so huge values cannot wrap back to 100.
    {flag::mix, "--mix", "i,r,g",
     "op-mix percentages insert,remove,get, summing to 100",
     [](O& o, const char* v) {
       std::uint64_t sum = 0;
       if (!to_list(v, &o.mix)) return false;
       for (unsigned pct : o.mix) sum += pct;
       return o.mix.size() == 3 && sum == 100;
     }},
    {flag::producers, "--producers", "a,b,...",
     "producer-thread counts, zipped with --consumers",
     set_list<&O::producers>},
    {flag::consumers, "--consumers", "a,b,...",
     "consumer-thread counts (a singleton list broadcasts)",
     set_list<&O::consumers>},
    {flag::shards, "--shards", "n|auto",
     "retired-node shards for EBR, IBR, HP, HE, Leaky (0 = per-thread "
     "lists; auto = from the topology)",
     [](O& o, const char* v) {
       if (std::strcmp(v, "auto") != 0) return to_uint(v, &o.shards);
       o.shards = default_retire_shards();
       return true;
     }},
    {flag::seed, "--seed", "n",
     "base PRNG seed of every generator, hex accepted (echoed in the "
     "output)",
     [](O& o, const char* v) { return to_uint(v, &o.seed, 0, 0); }},
    {flag::faults, "--faults", "spec",
     "fault schedule (grammar in lab/fault_plan.hpp)", set_text<&O::faults>},
    {flag::sample_ms, "--sample-ms", "ms", "telemetry cadence (>= 1)",
     set_uint<&O::sample_ms, 1>},
    {flag::structure, "--structure", "name", "drive one registered structure",
     set_text<&O::structure>},
    // A power of two keeps the per-op modulo a mask and makes the
    // sampled-op spacing exact; 0 would divide by zero.
    {flag::lat_sample, "--lat-sample", "n",
     "time one in n operations (a power of two; default 32)",
     [](O& o, const char* v) {
       return to_uint(v, &o.lat_sample) && std::has_single_bit(o.lat_sample);
     }},
    {flag::trace, "--trace", "path",
     "export SMR-internals events as Chrome trace-event JSON",
     set_text<&O::trace>},
    {flag::metrics, "--metrics", "path",
     "write a Prometheus text snapshot of the domain counters",
     set_text<&O::metrics>},
    {flag::json, "--json", "path", "also write the run as JSON",
     set_text<&O::json>},
    {flag::mutate, "--mutate", "drop-validate|skip-protect",
     "run an injected-bug self-test the checker must catch",
     [](O& o, const char* v) {
       o.mutate = v;
       return o.mutate == "drop-validate" || o.mutate == "skip-protect";
     }},
    {flag::counterexample, "--counterexample", "path",
     "also write violation histories to this file",
     set_text<&O::counterexample>},
    {flag::svc_shards, "--svc-shards", "n",
     "cache shards, each with its own domain (>= 1)",
     set_uint<&O::svc_shards, 1>},
    {flag::tenants, "--tenants", "n", "swarm size (>= 1)",
     set_uint<&O::tenants, 1>},
    {flag::rate, "--rate", "ops/s",
     "total offered load over the tenants (0 = closed loop)",
     [](O& o, const char* v) {
       return to_double(v, &o.rate_ops_s) && o.rate_ops_s >= 0;
     }},
    // theta = 1 makes the Zipf normalization's alpha = 1/(1-theta)
    // diverge; the YCSB-style generator is defined on [0, 1).
    {flag::skew, "--skew", "theta", "Zipfian skew in [0, 1)",
     [](O& o, const char* v) {
       return to_double(v, &o.skew) && o.skew >= 0 && o.skew < 1;
     }},
    {flag::arrival, "--arrival", "fixed|poisson", "tenant arrival process",
     [](O& o, const char* v) {
       o.arrival = v;
       return o.arrival == "fixed" || o.arrival == "poisson";
     }},
    {flag::tenant_script, "--tenant-script", "spec",
     "bad-tenant schedule (grammar in svc/tenant.hpp)",
     set_text<&O::tenant_script>},
    {flag::slo, "--slo", "spec",
     "SLO assertions (grammar in svc/slo.hpp); a gated violation exits 6",
     set_text<&O::slo>},
    {flag::churn, "--churn", "ms",
     "connection-churn period (>= 1; omit for none)",
     set_uint<&O::churn_ms, 1>},
    {flag::full, "--full", nullptr, "paper scale: 10 s runs, 5 repeats",
     [](O&, const char*) { return true; }},
    {flag::out, "--out", "path", "trajectory file to write",
     set_text<&O::out>},
    {flag::fastpath, "--fastpath", "on|off",
     "off disables the slab allocator, entry bursts and sharded retire",
     [](O& o, const char* v) {
       o.fastpath = std::strcmp(v, "on") == 0;
       return o.fastpath || std::strcmp(v, "off") == 0;
     }},
    {flag::iters, "--iters", "n", "iterations per timed primitive (>= 1)",
     set_uint<&O::iters, 1>},
};

[[noreturn]] void usage(const char* prog, flag_set accepted) {
  std::fputs(usage_text(prog, accepted).c_str(), stderr);
  std::exit(2);
}

void warn_duplicate(const char* flag, unsigned v) {
  std::fprintf(stderr, "%s: ignoring duplicate entry '%u'\n", flag, v);
}

void warn_duplicate(const char* flag, const std::string& v) {
  std::fprintf(stderr, "%s: ignoring duplicate entry '%s'\n", flag,
               v.c_str());
}

/// Drop repeated entries, keeping first occurrences in order. A duplicate
/// in --schemes or --threads would silently run (and emit) an identical
/// series twice, skewing any averaging done over the CSV — warn instead
/// of multiplying work.
template <class T>
void dedupe_list(std::vector<T>& v, const char* flag) {
  std::vector<T> out;
  out.reserve(v.size());
  for (T& x : v) {
    if (std::find(out.begin(), out.end(), x) != out.end()) {
      warn_duplicate(flag, x);
    } else {
      out.push_back(std::move(x));
    }
  }
  v = std::move(out);
}

}  // namespace

bool cli_options::scheme_enabled(const std::string& name) const {
  if (schemes.empty()) return true;
  for (const auto& s : schemes) {
    if (s == name) return true;
  }
  return false;
}

std::string usage_text(const char* prog, flag_set accepted) {
  std::string s = "usage: " + std::string(prog) + " [flags]\n";
  for (const flag_row& r : kFlags) {
    if (!accepted.has(r.id)) continue;
    std::string lhs = r.name;
    if (r.value != nullptr) lhs += std::string(" ") + r.value;
    char line[256];
    std::snprintf(line, sizeof line, "  %-26s %s\n", lhs.c_str(), r.help);
    s += line;
  }
  return s;
}

cli_options parse_cli(int argc, char** argv, cli_options defaults,
                      flag_set accepted) {
  cli_options o = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) usage(argv[0], accepted);
    const flag_row* row = nullptr;
    for (const flag_row& r : kFlags) {
      if (accepted.has(r.id) && std::strcmp(argv[i], r.name) == 0) row = &r;
    }
    if (row == nullptr) {
      std::fprintf(stderr, "unknown flag for this binary: %s\n", argv[i]);
      usage(argv[0], accepted);
    }
    const char* v = nullptr;
    if (row->value != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", row->name);
        usage(argv[0], accepted);
      }
      v = argv[++i];
    }
    if (!row->set(o, v)) {
      std::fprintf(stderr, "%s: bad value '%s'; wants %s: %s\n", row->name,
                   v, row->value, row->help);
      usage(argv[0], accepted);
    }
    o.given.add(row->id);
  }
  if (o.given.has(flag::full)) {
    o.duration_ms = 10000;  // paper §6: 10-second runs,
    o.repeats = 5;          // averaged over 5 repetitions
  }
  dedupe_list(o.threads, "--threads");
  dedupe_list(o.stalled, "--stalled");
  dedupe_list(o.schemes, "--schemes");
  return o;
}

bool validate_scheme_filter(const cli_options& o,
                            const std::vector<std::string>& valid) {
  for (const std::string& want : o.schemes) {
    if (std::find(valid.begin(), valid.end(), want) != valid.end()) continue;
    std::string list;
    for (const std::string& v : valid) {
      if (!list.empty()) list += ", ";
      list += v;
    }
    std::fprintf(stderr, "unknown scheme '%s' for this binary; valid here: %s\n",
                 want.c_str(), list.c_str());
    return false;
  }
  return true;
}

bool load_fault_plan(const cli_options& o, unsigned threads,
                     lab::fault_plan* plan) {
  if (o.faults.empty()) return true;
  std::string err;
  auto parsed = lab::parse_fault_plan(o.faults, &err);
  if (!parsed.has_value() || !parsed->validate_tids(threads, &err)) {
    std::fprintf(stderr, "--faults: %s\n", err.c_str());
    return false;
  }
  const auto last_end = parsed->last_end_ms();
  if (last_end.has_value() && *last_end >= o.duration_ms) {
    std::fprintf(stderr,
                 "--faults: the last fault clears at %.0fms but the run "
                 "ends at %ums; extend --duration so recovery is "
                 "measurable\n",
                 *last_end, o.duration_ms);
    return false;
  }
  *plan = std::move(*parsed);
  return true;
}

void print_csv_header(const char* figure, std::uint64_t seed,
                      std::uint64_t lat_sample) {
  std::printf("# %s\n# seed=0x%llx\n", figure,
              static_cast<unsigned long long>(seed));
  if (lat_sample != 0) {
    std::printf("# lat_sample=%llu\n",
                static_cast<unsigned long long>(lat_sample));
  }
  for (std::size_t i = 0; i < std::size(kCsvColumns); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", kCsvColumns[i]);
  }
  std::printf("\n");
  std::fflush(stdout);
}

namespace {

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace

void print_csv_row(const char* figure, const char* structure,
                   const char* scheme, unsigned threads, unsigned stalled,
                   unsigned producers, unsigned consumers, double mops,
                   double unreclaimed, double unreclaimed_peak,
                   double p50_ns, double p99_ns, double max_ns,
                   double lag_p50_ns, double lag_p99_ns, double lag_max_ns) {
  const std::string vals[] = {
      figure,
      structure,
      scheme,
      std::to_string(threads),
      std::to_string(stalled),
      std::to_string(producers),
      std::to_string(consumers),
      fixed(mops, 4),
      fixed(unreclaimed, 2),
      fixed(unreclaimed_peak, 0),
      fixed(p50_ns, 0),
      fixed(p99_ns, 0),
      fixed(max_ns, 0),
      fixed(lag_p50_ns, 0),
      fixed(lag_p99_ns, 0),
      fixed(lag_max_ns, 0),
  };
  static_assert(std::size(vals) == std::size(kCsvColumns),
                "row values and kCsvColumns must stay in lockstep");
  for (std::size_t i = 0; i < std::size(vals); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", vals[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace hyaline::harness
