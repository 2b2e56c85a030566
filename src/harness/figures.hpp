// Data-driven entry points for the paper-figure benchmarks.
//
// Each bench binary declares a `figure_spec` — a plain data table naming
// the workload shape — and calls run_figure(), which parses only the
// flags of the spec's kind (figure_flags). All scheme and structure
// resolution happens at runtime through harness/registry.hpp, so the
// binaries contain no template unrolls and `--schemes` selects any
// registered scheme by name without recompilation.
#pragma once

#include <cstddef>
#include <cstdio>
#include <vector>

#include "harness/cli.hpp"
#include "lab/telemetry.hpp"

namespace hyaline::harness {

enum class figure_kind {
  /// Four structures × the paper's nine-scheme line-up × thread sweep
  /// (Figures 8/9, 11/12, and their LL/SC twins 13-16).
  matrix,
  /// Hash map, fixed active threads, sweeping stalled threads (Figure 10a).
  robustness,
  /// Hash map with a small slot cap, trim() on/off (Figure 10b).
  trim,
  /// Container family (msqueue + stack) × scheme line-up, sweeping
  /// (producers, consumers) pairs (fig_queue). Containers take the
  /// producer/consumer split instead of the set-only key_range/op-mix/
  /// thread knobs.
  container,
  /// Robustness lab (fig_timeline): one structure (--structure, set or
  /// container), single thread count, single repetition, scheme line-up,
  /// with a scripted fault schedule (--faults) and time-series telemetry
  /// (--sample-ms). Each robust scheme's series is recovery-checked —
  /// unreclaimed must return to its pre-fault baseline after the last
  /// fault clears, or the binary exits non-zero.
  timeline,
};

struct figure_spec {
  const char* name;  ///< CSV header tag, e.g. "fig8-9-write"
  figure_kind kind = figure_kind::matrix;
  /// Op-mix percentages (overridable with --mix). Paper: write = {50,50,0},
  /// read-mostly = {5,5,90}.
  unsigned insert_pct = 50;
  unsigned remove_pct = 50;
  unsigned get_pct = 0;
  /// Matrix figures: run the Hyaline variants over the emulated LL/SC head
  /// (§4.4; Figures 13-16).
  bool llsc = false;
  /// Trim figures: slot cap k (paper: k <= 32).
  std::size_t slot_cap = 4;
  std::vector<unsigned> default_threads = {1, 2, 4, 8};
  std::vector<unsigned> default_stalled = {};
  /// Container figures: the (producers, consumers) sweep, zipped pairwise
  /// (overridable with --producers/--consumers; a singleton list
  /// broadcasts against the other).
  std::vector<unsigned> default_producers = {1, 2, 4};
  std::vector<unsigned> default_consumers = {1, 2, 4};
  /// Timeline figures: telemetry cadence and the run length (0 = keep the
  /// CLI default; fig_timeline needs a longer default so a transient
  /// fault leaves a measurable fault-free tail).
  unsigned default_sample_ms = 10;
  unsigned default_duration_ms = 0;
};

/// Parse argv over the spec's defaults and run the figure. Returns the
/// process exit status (non-zero on CLI errors such as an unknown scheme).
int run_figure(const figure_spec& spec, int argc, char** argv);

/// The flags a figure kind honours: kFigureFlags for matrix and trim,
/// kRobustnessFlags, kContainerFlags, kTimelineFlags.
flag_set figure_flags(figure_kind kind);

/// A telemetry series as the elements of a --json "timeline" array (the
/// caller writes the brackets): one sample shape for every JSON file.
void write_timeline_json(std::FILE* f,
                         const std::vector<lab::sample_point>& points);

}  // namespace hyaline::harness
