// One scheme-run of the repository benchmark.
//
//   perfbench --workload kv-read|kv-churn|cache-stall
//             --scheme epoch|hyaline|hyaline-s
//             --seed N --seconds S [--trace 0 | --trace 1 --spans-out FILE]
//
// Sets the structure up kSetups times (timing each), warms up, measures S
// seconds with tracing off and, with --trace 1, another S seconds with
// layer spans on, which are then written to FILE as CSV. Prints one JSON
// line with the raw results; perfbench/run.py runs the three schemes and
// names the metrics. Exits 1 when a correctness check fails, 2 on bad
// arguments or when the spans cannot be written.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cache.hpp"
#include "common.hpp"
#include "harness/provenance.hpp"
#include "kv.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "kv-read|kv-churn|cache-stall --scheme "
               "epoch|hyaline|hyaline-s --seed N --seconds S "
               "[--trace 0 | --trace 1 --spans-out FILE]\n",
               why);
  std::exit(2);
}

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--scheme") {
      o.scheme = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600) {
        usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("bad --trace");
      }
      o.trace = v[0] == '1';
    } else if (a == "--spans-out") {
      o.spans_out = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty() || o.scheme.empty()) {
    usage("--workload and --scheme are required");
  }
  if (o.trace == o.spans_out.empty()) {
    usage("--spans-out goes with --trace 1, and only with it");
  }
  return o;
}

template <class D>
run_result run_scheme(const options& o, const tick_clock& clk) {
  if (o.workload == "kv-read") return run_kv<D>(o, kKvRead, clk);
  if (o.workload == "kv-churn") return run_kv<D>(o, kKvChurn, clk);
  if (o.workload == "cache-stall") return run_cache<D>(o, clk);
  usage(("unknown workload " + o.workload).c_str());
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void put_map(std::string& out, const char* name,
             const std::map<std::string, double>& m) {
  out += ", \"";
  out += name;
  out += "\": {";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out += (first ? "\"" : ", \"") + k + "\": " + buf;
    first = false;
  }
  out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  options o = parse(argc, argv);
  o.cpus = allowed_cpus();
  pin_to(o.cpus, 0);
  const tick_clock clk = calibrate();
  run_result r;
  if (o.scheme == "epoch") {
    r = run_scheme<hyaline::smr::ebr_domain>(o, clk);
  } else if (o.scheme == "hyaline") {
    r = run_scheme<hyaline::domain>(o, clk);
  } else if (o.scheme == "hyaline-s") {
    r = run_scheme<hyaline::domain_s>(o, clk);
  } else {
    usage(("unknown scheme " + o.scheme).c_str());
  }

  if (o.trace) {
    std::FILE* f = std::fopen(o.spans_out.c_str(), "w");
    bool ok = f != nullptr;
    if (ok) {
      write_spans_csv(f, r.spans, r.spans_t0, clk.ticks_per_ns);
      ok = std::ferror(f) == 0;
      ok = std::fclose(f) == 0 && ok;
    }
    if (!ok) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.spans_out.c_str());
      return 2;
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.info["rss_peak_mib"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.info["clock_read_ns"] = clk.ns(clk.read_ticks);

  const auto& prov = hyaline::harness::build_provenance();
  std::string out = "{\"workload\": \"" + o.workload + "\", \"scheme\": \"" +
                    o.scheme + "\", \"correct\": " +
                    (r.violations.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"overdue\": " + std::to_string(r.overdue) +
                    ", \"violations\": [";
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    out += (i ? ", \"" : "\"") + escape(r.violations[i]) + "\"";
  }
  out += "], \"setup_s\": [";
  char buf[64];
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", r.setup_s[i]);
    out += buf;
  }
  out += "]";
  put_map(out, "e2e", r.e2e);
  put_map(out, "layer", r.layer);
  put_map(out, "info", r.info);
  out += ", \"provenance\": {\"git_sha\": \"" + escape(prov.git_sha) +
         "\", \"cpu_model\": \"" + escape(prov.cpu_model) +
         "\", \"nproc\": " + std::to_string(o.cpus.size()) +
         ", \"hw_threads\": " + std::to_string(prov.hw_threads) +
         ", \"compiler\": \"" + escape(prov.compiler) + "\"}}";
  std::printf("%s\n", out.c_str());
  for (const std::string& v : r.violations) {
    std::fprintf(stderr, "perfbench: %s/%s: %s\n", o.workload.c_str(),
                 o.scheme.c_str(), v.c_str());
  }
  return r.violations.empty() ? 0 : 1;
}
