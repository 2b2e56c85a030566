// Trajectory files: the canonical perf-tracking interchange format.
//
// bench/sweep writes one JSON document per run (schema below); the
// comparator (run_bench_diff, the body of bench/bench_diff) loads two of
// them and diffs matched points. This header carries the in-memory form and a loader built on a
// deliberately small recursive-descent JSON reader — enough for the
// files this repo writes, with strict-enough errors that a truncated or
// hand-mangled file is rejected instead of half-parsed.
//
// Schema (version 1):
//   {
//     "bench": "sweep", "version": 1, "seed": <n>,
//     "provenance": {"git_sha": "...", "compiler": "...",
//                    "cpu_model": "...", "hw_threads": <n>},
//     "config": {"duration_ms": <n>, "repeats": <n>, "threads": <n>},
//     "cells": [
//       {"cell": "<lineup cell name>", "structure": "<registry name>",
//        "scheme": "<registry name>", "threads": <n>, "mops": <x>,
//        "unreclaimed_peak": <x>, "external": <bool>,
//        "scans_per_kop": <x>, "finalizes_per_kop": <x>,
//        "era_advances_per_kop": <x>}, ...
//     ]
//   }
// `external` marks honesty-baseline rows (the coarse-mutex cells): they
// are reported but never participate in SMR regression comparisons.
// The three `*_per_kop` rates (mechanism events per thousand ops, prefill
// and drain included) are written by sweep but not loaded or compared
// yet: files written before them lack them and still load. Unknown keys
// are ignored on load: `config.shards` and `steals_per_kop` in files from
// before sharded retire's removal, and the fast-path on/off key in the
// `config` of files from before that switch's removal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hyaline::harness {

/// One measured point of a sweep run.
struct sweep_point {
  std::string cell;       ///< lineup cell name (e.g. "set-write")
  std::string structure;  ///< registry structure the cell drove
  std::string scheme;     ///< registry scheme name
  unsigned threads = 0;
  double mops = 0.0;
  double unreclaimed_peak = 0.0;
  bool external = false;  ///< honesty baseline, excluded from comparisons
};

/// A parsed trajectory file.
struct sweep_file {
  std::uint64_t seed = 0;
  int version = 0;
  std::string git_sha;
  std::string compiler;
  std::string cpu_model;
  std::vector<sweep_point> points;
};

/// Load `path`. On failure returns false and sets `err` to a one-line
/// diagnosis (file missing, JSON malformed, schema field missing/typed
/// wrong). Unknown extra fields are ignored, so the schema can grow.
bool load_sweep(const std::string& path, sweep_file& out, std::string& err);

/// The trajectory gate, bench_diff (usage in bench/bench_diff.cpp):
/// 0 = no regression, 1 = a regression (or a dropped cell under
/// --require-cells), 2 = a usage or load error, malformed values
/// included.
int run_bench_diff(int argc, char** argv);

}  // namespace hyaline::harness
