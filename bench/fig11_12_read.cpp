// Figures 11 and 12 (a-d): throughput and unreclaimed objects under the
// read-mostly workload (90% get, 10% put; put split evenly into
// insert/remove to hold size steady). Every row carries both columns.
#include "harness/figures.hpp"

int main(int argc, char** argv) {
  using namespace hyaline::harness;
  return run_figure({.name = "fig11-12-read",
                     .insert_pct = 5,
                     .remove_pct = 5,
                     .get_pct = 90},
                    argc, argv);
}
