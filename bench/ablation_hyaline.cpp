// Ablations for the Hyaline design choices the paper leaves tunable:
//   - batch size (the paper fixes >= 64; §3.2 ties it to retire cost),
//   - slot count k relative to the thread count (§3.3, §5),
//   - head policy (packed single-word FAA vs true double-width CAS vs the
//     emulated LL/SC of §4.4).
// Workload: hash map, write-heavy, as in Fig. 8c/10.
#include <cstdio>

#include "ds/michael_hashmap.hpp"
#include "harness/cli.hpp"
#include "harness/workload.hpp"
#include "smr/hyaline.hpp"

namespace {

using namespace hyaline;
using namespace hyaline::harness;

template <class D>
void run_point(const char* series, const char* variant, unsigned threads,
               const cli_options& o, const config& c) {
  D dom(c);
  ds::michael_hashmap<D> map(dom);
  workload_config cfg;
  cfg.threads = threads;
  cfg.insert_pct = 50;
  cfg.remove_pct = 50;
  cfg.get_pct = 0;
  cfg.duration_ms = o.duration_ms;
  cfg.repeats = o.repeats;
  cfg.key_range = o.key_range;
  cfg.prefill = o.prefill;
  cfg.seed = o.seed;
  cfg.lat_sample = o.lat_sample;
  const auto r = run_workload(dom, map, cfg);
  print_csv_row(series, "hashmap", variant, threads, 0, 0, 0, r.mops,
                r.unreclaimed_avg, static_cast<double>(r.unreclaimed_peak),
                r.p50_ns, r.p99_ns, static_cast<double>(r.max_ns),
                r.lag.p50_ns, r.lag.p99_ns,
                static_cast<double>(r.lag.max_ns));
}

}  // namespace

int main(int argc, char** argv) {
  cli_options defaults;
  defaults.threads = {2, 4};
  const cli_options o = parse_cli(argc, argv, defaults, kAblationFlags);
  print_csv_header("ablation-hyaline", o.seed, o.lat_sample);

  for (unsigned t : o.threads) {
    for (std::size_t batch : {16, 64, 256, 1024}) {
      char label[64];
      std::snprintf(label, sizeof label, "batch=%zu", batch);
      run_point<domain>("ablation-batch", label, t, o,
                        config{.slots = 8, .batch_min = batch});
    }
    for (std::size_t k : {1, 2, 8, 32, 128}) {
      char label[64];
      std::snprintf(label, sizeof label, "k=%zu", k);
      run_point<domain>("ablation-slots", label, t, o,
                        config{.slots = k, .batch_min = 64});
    }
    run_point<domain>("ablation-head", "packed64", t, o,
                      config{.slots = 8});
    run_point<domain_dw>("ablation-head", "dwcas128", t, o,
                         config{.slots = 8});
    run_point<domain_llsc>("ablation-head", "llsc-emul", t, o,
                           config{.slots = 8});
    run_point<domain_s>("ablation-era-freq", "freq=16", t, o,
                        config{.slots = 8, .era_freq = 16});
    run_point<domain_s>("ablation-era-freq", "freq=64", t, o,
                        config{.slots = 8, .era_freq = 64});
    run_point<domain_s>("ablation-era-freq", "freq=1024", t, o,
                        config{.slots = 8, .era_freq = 1024});
  }
  return 0;
}
