// Robustness lab timeline: one structure under a scripted fault schedule
// (--faults, grammar in lab/fault_plan.hpp), sampled into a time series
// every 10 ms. Where the paper's Figure 10a shows one end-of-run
// scalar per stalled-thread count, this shows the whole trajectory — the
// spike while a transient stall pins memory, and (for robust schemes)
// the return to baseline once it clears. Recovery is a checked property:
// a robust scheme whose unreclaimed count fails to settle back to within
// 2x its pre-fault baseline exits the binary with status 4.
//
//   ./fig_timeline --faults stall:1@200ms+200ms --json out.json
//   ./fig_timeline --structure msqueue --faults churn:2@300ms,stall:1@500+100
#include "harness/figures.hpp"

int main(int argc, char** argv) {
  using namespace hyaline::harness;
  return run_figure({.name = "fig-timeline",
                     .kind = figure_kind::timeline,
                     .insert_pct = 50,
                     .remove_pct = 50,
                     .get_pct = 0,
                     .default_threads = {4},
                     // Long enough that a few-hundred-ms transient fault
                     // leaves a measurable fault-free tail.
                     .default_duration_ms = 1000},
                    argc, argv);
}
