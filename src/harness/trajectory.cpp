#include "harness/trajectory.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

#include "harness/cli.hpp"
#include "harness/json.hpp"

namespace hyaline::harness {

// The JSON value type + reader formerly defined here moved to
// harness/json.hpp so the trace validator (bench/trace_check) parses the
// same dialect the trajectory gate does.
using json::get;
using json::jvalue;
using json::want_num;
using json::want_str;

bool load_sweep(const std::string& path, sweep_file& out, std::string& err) {
  jvalue root;
  if (!json::load_file(path, root, err)) return false;
  if (!root.is_obj()) {
    err = path + ": top level is not an object";
    return false;
  }
  double d = 0;
  if (!want_num(root, "version", d, err)) {
    err = path + ": " + err;
    return false;
  }
  out.version = static_cast<int>(d);
  if (out.version != 1) {
    err = path + ": unsupported trajectory version " +
          std::to_string(out.version);
    return false;
  }
  if (!want_num(root, "seed", d, err)) {
    err = path + ": " + err;
    return false;
  }
  out.seed = static_cast<std::uint64_t>(d);

  if (const jvalue* prov = get(root, "provenance");
      prov != nullptr && prov->is_obj()) {
    want_str(*prov, "git_sha", out.git_sha, err);
    want_str(*prov, "compiler", out.compiler, err);
    want_str(*prov, "cpu_model", out.cpu_model, err);
    err.clear();  // provenance strings are advisory, not load-fatal
  }

  const jvalue* cells = get(root, "cells");
  if (cells == nullptr || !cells->is_arr()) {
    err = path + ": missing 'cells' array";
    return false;
  }
  out.points.clear();
  out.points.reserve(cells->arr->size());
  for (std::size_t i = 0; i < cells->arr->size(); ++i) {
    const jvalue& c = (*cells->arr)[i];
    sweep_point pt;
    std::string ferr;
    double threads = 0;
    if (!c.is_obj() || !want_str(c, "cell", pt.cell, ferr) ||
        !want_str(c, "structure", pt.structure, ferr) ||
        !want_str(c, "scheme", pt.scheme, ferr) ||
        !want_num(c, "threads", threads, ferr) ||
        !want_num(c, "mops", pt.mops, ferr)) {
      err = path + ": cells[" + std::to_string(i) + "]: " +
            (ferr.empty() ? "not an object" : ferr);
      return false;
    }
    pt.threads = static_cast<unsigned>(threads);
    if (double peak = 0; want_num(c, "unreclaimed_peak", peak, ferr)) {
      pt.unreclaimed_peak = peak;
    }
    if (const jvalue* ext = get(c, "external");
        ext != nullptr && ext->k == jvalue::kind::boolean) {
      pt.external = ext->b;
    }
    out.points.push_back(std::move(pt));
  }
  err.clear();
  return true;
}

namespace {

void usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s OLD.json NEW.json [--tolerance x] "
               "[--min-mops x] [--require-cells]\n",
               prog);
}

const sweep_point* find_match(const sweep_file& f, const sweep_point& p) {
  for (const sweep_point& q : f.points) {
    if (q.cell == p.cell && q.structure == p.structure &&
        q.scheme == p.scheme && q.threads == p.threads) {
      return &q;
    }
  }
  return nullptr;
}

void print_provenance(const char* label, const std::string& path,
                      const sweep_file& f) {
  std::printf("%s %s\n  rev %s | %s | %s\n", label, path.c_str(),
              f.git_sha.empty() ? "?" : f.git_sha.c_str(),
              f.compiler.empty() ? "?" : f.compiler.c_str(),
              f.cpu_model.empty() ? "?" : f.cpu_model.c_str());
}

}  // namespace

int run_bench_diff(int argc, char** argv) {
  std::string old_path, new_path;
  double tolerance = 0.35;
  double min_mops = 0.05;
  bool require_cells = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool tol = std::strcmp(arg, "--tolerance") == 0;
    if (tol || std::strcmp(arg, "--min-mops") == 0) {
      double& v = tol ? tolerance : min_mops;
      const char* text = i + 1 < argc ? argv[++i] : "";
      if (!to_double(text, &v) || v < 0 || (tol && v >= 1)) {
        std::fprintf(stderr, "%s: bad value '%s'%s\n", arg, text,
                     tol ? " (wants [0, 1))" : "");
        return 2;
      }
    } else if (std::strcmp(arg, "--require-cells") == 0) {
      require_cells = true;
    } else if (arg[0] != '-' && new_path.empty()) {
      (old_path.empty() ? old_path : new_path) = arg;
    } else {
      if (std::strcmp(arg, "--help") != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg);
      }
      usage(argv[0]);
      return 2;
    }
  }
  if (old_path.empty() || new_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  sweep_file oldf, newf;
  std::string err;
  if (!load_sweep(old_path, oldf, err) || !load_sweep(new_path, newf, err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  print_provenance("old:", old_path, oldf);
  print_provenance("new:", new_path, newf);
  if (oldf.cpu_model != newf.cpu_model || oldf.compiler != newf.compiler) {
    std::printf(
        "note: machine or compiler differs between files — treat "
        "percentages as indicative, not as a gate\n");
  }
  if (oldf.seed != newf.seed) {
    std::printf("note: seeds differ (0x%llx vs 0x%llx)\n",
                static_cast<unsigned long long>(oldf.seed),
                static_cast<unsigned long long>(newf.seed));
  }
  std::printf("tolerance %.0f%%, min-mops %.3f\n\n", tolerance * 100,
              min_mops);

  std::printf("%-10s %-11s %-14s %3s %10s %10s %8s  %s\n", "cell",
              "structure", "scheme", "thr", "old-mops", "new-mops",
              "delta", "verdict");
  int regressions = 0;
  std::size_t joined = 0, only_old = 0;
  for (const sweep_point& p : oldf.points) {
    const sweep_point* q = find_match(newf, p);
    if (q == nullptr) {
      ++only_old;
      std::printf("%-10s %-11s %-14s %3u %10.4f %10s %8s  dropped\n",
                  p.cell.c_str(), p.structure.c_str(), p.scheme.c_str(),
                  p.threads, p.mops, "-", "-");
      continue;
    }
    ++joined;
    const double delta =
        p.mops > 0 ? (q->mops - p.mops) / p.mops * 100.0 : 0.0;
    const char* verdict = "ok";
    if (p.external || q->external) {
      verdict = "baseline";
    } else if (p.mops >= min_mops && q->mops < p.mops * (1.0 - tolerance)) {
      verdict = "REGRESSION";
      ++regressions;
    } else if (p.mops < min_mops) {
      verdict = "below-floor";
    }
    std::printf("%-10s %-11s %-14s %3u %10.4f %10.4f %+7.1f%%  %s\n",
                p.cell.c_str(), p.structure.c_str(), p.scheme.c_str(),
                p.threads, p.mops, q->mops, delta, verdict);
  }
  std::size_t only_new = 0;
  for (const sweep_point& q : newf.points) {
    if (find_match(oldf, q) == nullptr) {
      ++only_new;
      std::printf("%-10s %-11s %-14s %3u %10s %10.4f %8s  new\n",
                  q.cell.c_str(), q.structure.c_str(), q.scheme.c_str(),
                  q.threads, "-", q.mops, "-");
    }
  }

  std::printf("\n%zu joined, %zu dropped, %zu new: %s\n", joined, only_old,
              only_new,
              regressions == 0
                  ? "no regression"
                  : (std::to_string(regressions) + " REGRESSION(S)")
                        .c_str());
  // Machine-greppable comparability trailer: how many provenance fields
  // disagree between the two files. 0 = a clean apples-to-apples diff;
  // anything else and CI logs carry the caveat even after the human-prose
  // notes above scroll away.
  {
    int mismatches = 0;
    if (oldf.cpu_model != newf.cpu_model) ++mismatches;
    if (oldf.compiler != newf.compiler) ++mismatches;
    if (oldf.seed != newf.seed) ++mismatches;
    std::printf("# provenance: %d mismatches\n", mismatches);
  }
  if (require_cells && only_old != 0) {
    std::fprintf(stderr,
                 "--require-cells: %zu pinned cell(s) missing from the "
                 "fresh sweep (see 'dropped' rows above)\n",
                 only_old);
    return 1;
  }
  return regressions == 0 ? 0 : 1;
}

}  // namespace hyaline::harness
