// Trajectory comparator: diff two BENCH_<n>.json files and fail loudly on
// regression.
//
//   bench_diff OLD.json NEW.json [--tolerance x] [--min-mops x]
//              [--require-cells]
//
// Points are joined on (cell, structure, scheme, threads). A joined point
// regresses when
//     new_mops < old_mops * (1 - tolerance)   and   old_mops >= min-mops
// The tolerance is deliberately wide by default (35%): these are
// sub-second runs on shared machines, and a perf gate that cries wolf
// gets deleted. --min-mops filters points too slow to measure reliably
// (their relative noise is unbounded). External-baseline points (the
// coarse-mutex cells) are printed for context but never gate.
// --require-cells turns a dropped point — a (cell, structure, scheme,
// threads) tuple present in OLD but missing from NEW — into a failure:
// a pinned lineup cell silently vanishing from the fresh sweep is how a
// perf gate quietly stops covering what it was built to cover.
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage/load error
// (a malformed --tolerance or --min-mops value, `0.25x`, included).
// Provenance from both files is printed first — a diff across machines,
// compilers, or configs is visibly apples-to-oranges before anyone reads
// its percentages.
#include "harness/trajectory.hpp"

int main(int argc, char** argv) {
  return hyaline::harness::run_bench_diff(argc, argv);
}
