// Figures 8 and 9 (a-d): throughput and average retired-but-unreclaimed
// objects of the four structures under the write-intensive workload (50%
// insert, 50% delete), sweeping threads. Every row carries both columns.
// Paper sweeps 1..144 on 72 cores; defaults here are CI-scale.
#include "harness/figures.hpp"

int main(int argc, char** argv) {
  using namespace hyaline::harness;
  return run_figure({.name = "fig8-9-write",
                     .insert_pct = 50,
                     .remove_pct = 50,
                     .get_pct = 0},
                    argc, argv);
}
