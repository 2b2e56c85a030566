#include "check/check_driver.hpp"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "check/mutants.hpp"
#include "harness/cli.hpp"
#include "harness/registry.hpp"
#include "harness/workload.hpp"
#include "lab/fault_plan.hpp"
#include "smr/ebr.hpp"

namespace hyaline::check {
namespace {

using harness::cli_options;
using harness::workload_config;

constexpr int kExitCli = 2;
constexpr int kExitGate = 3;
constexpr int kExitViolation = 5;

/// Mirrors a violation report to stderr and (optionally) the
/// --counterexample file, accumulating across cells so the artifact holds
/// every counterexample of the run.
class counterexample_sink {
 public:
  explicit counterexample_sink(std::string path) : path_(std::move(path)) {}

  void report(const std::string& where, const violation& v) {
    const std::string body =
        where + ": " + format_violation(v);
    std::fprintf(stderr, "VIOLATION %s", body.c_str());
    text_ += body;
  }

  /// Write the accumulated counterexamples; true on success (or nothing
  /// to do).
  bool flush() const {
    if (path_.empty() || text_.empty()) return true;
    return harness::write_output(
        "--counterexample", path_,
        [this](std::FILE* f) { std::fputs(text_.c_str(), f); });
  }

 private:
  std::string path_;
  std::string text_;
};

/// A container cell without an order tag is a registry bug, not a
/// checkable cell — refuse loudly instead of guessing its semantics.
bool has_checkable_semantics(const harness::scheme_registry::cell& cell) {
  return cell.kind == harness::structure_kind::set ||
         cell.order != harness::container_order::none;
}

semantics semantics_of(const harness::scheme_registry::cell& cell) {
  if (cell.kind == harness::structure_kind::set) return semantics::set;
  return cell.order == harness::container_order::fifo ? semantics::fifo
                                                      : semantics::lifo;
}

/// The matrix sweep: every registered cell under small-key contention,
/// history on, checked per cell. Integrity gates (leaks, conservation)
/// ride along so a check run is strictly stronger than a benchmark run.
int run_matrix(const cli_options& o, const lab::fault_plan& plan,
               unsigned threads) {
  const auto& reg = harness::scheme_registry::instance();
  counterexample_sink sink(o.counterexample);
  int status = 0;
  std::size_t cells = 0;
  std::size_t total_ops = 0;
  for (const auto& scheme : reg.schemes()) {
    if (!o.scheme_enabled(scheme.name)) continue;
    for (const auto& cell : scheme.cells) {
      if (!o.structure.empty() && cell.structure != o.structure) continue;
      const std::string where = scheme.name + " x " + cell.structure;
      if (!has_checkable_semantics(cell)) {
        std::fprintf(stderr,
                     "%s: container cell registered without a "
                     "container_order tag; declare fifo/lifo in "
                     "registry.cpp\n",
                     where.c_str());
        return kExitCli;
      }
      history_recorder rec;
      workload_config cfg;
      cfg.threads = threads;
      cfg.duration_ms = o.duration_ms;
      cfg.repeats = 1;
      cfg.seed = o.seed;
      cfg.history = &rec;
      cfg.faults = plan.empty() ? nullptr : &plan;
      const bool container =
          cell.kind == harness::structure_kind::container;
      if (container) {
        // Derived split; a small prefill keeps empty pops in play.
        cfg.prefill = std::min<std::size_t>(o.prefill, 64);
      } else {
        cfg.key_range = o.key_range;
        // Prefill must fit the key space with room for inserts to land.
        cfg.prefill =
            std::min<std::size_t>(o.prefill, cfg.key_range / 2);
        // Contention mix: enough gets that stale reads are observable,
        // enough mutation that states keep flipping.
        cfg.insert_pct = 40;
        cfg.remove_pct = 40;
        cfg.get_pct = 20;
      }
      harness::scheme_params p;
      p.slot_threads = threads + 1;  // + this thread, which prefills
      p.ack_threshold = harness::kShortRunAckThreshold;
      const auto t0 = std::chrono::steady_clock::now();
      const harness::workload_result r = cell.run(p, cfg);
      auto history = rec.collect();
      total_ops += history.size();
      const check_result res =
          check_history(semantics_of(cell), std::move(history), container);
      const double ms =
          std::chrono::duration_cast<std::chrono::duration<double>>(
              std::chrono::steady_clock::now() - t0)
              .count() *
          1e3;
      ++cells;

      const bool gate_bad = !harness::ledgers_close(r, container, where);
      if (gate_bad && status == 0) status = kExitGate;
      if (!res.ok) {
        sink.report(where, *res.bad);
        status = kExitViolation;
      }
      std::printf(
          "%-4s %-14s x %-8s ops=%-8zu keys=%-6zu clusters=%-8zu "
          "dfs=%-6zu undecided=%zu (%.0f ms)\n",
          res.ok && !gate_bad ? "ok" : "FAIL", scheme.name.c_str(),
          cell.structure.c_str(), res.ops, res.keys, res.clusters,
          res.dfs_clusters, res.undecided, ms);
      std::fflush(stdout);
    }
  }
  if (cells == 0) {
    std::fprintf(stderr, "no cells matched the --schemes/--structure "
                         "filter\n");
    return kExitCli;
  }
  std::printf("checked %zu cells, %zu recorded ops: %s\n", cells,
              total_ops, status == 0 ? "all linearizable" : "FAILURES");
  if (!sink.flush() && status == 0) status = kExitCli;
  return status;
}

/// The oracle's self-test: run a container with one protection step
/// deliberately broken and assert the checker notices. Non-zero exit =
/// caught (the healthy outcome); 0 = the oracle missed an injected bug.
int run_mutation(const cli_options& o) {
  const bool skip_protect = o.mutate == "skip-protect";
  smr::ebr_domain dom;
  history_recorder rec;
  workload_config cfg;
  cfg.producers = 2;
  cfg.consumers = 2;
  cfg.threads = 4;
  cfg.duration_ms = o.duration_ms;
  cfg.prefill = 8;  // tiny: reused nodes cycle back to the hot end fast
  cfg.repeats = 1;
  cfg.seed = o.seed;
  cfg.history = &rec;
  // complete=true is sound here even though a mutant's drain can be cut
  // by its pop budget: the budget only binds after a duplicate storm, and
  // duplicates are reported before the lost-value check is ever reached —
  // so a "lost" verdict always reflects a genuinely emptied container
  // that never produced the value (e.g. the head teleporting past a
  // queue segment, which loses values without duplicating any).
  check_result res;
  if (skip_protect) {
    mutant_stack<smr::ebr_domain> st(dom);
    harness::run_container_workload(dom, st, cfg);
    res = check_history(semantics::lifo, rec.collect(),
                        /*complete=*/true);
  } else {
    mutant_queue<smr::ebr_domain> q(dom);
    harness::run_container_workload(dom, q, cfg);
    res = check_history(semantics::fifo, rec.collect(),
                        /*complete=*/true);
  }
  if (res.ok) {
    std::printf(
        "mutation '%s' NOT caught over %zu recorded ops — the oracle "
        "missed an injected bug\n",
        o.mutate.c_str(), res.ops);
    return 0;
  }
  counterexample_sink sink(o.counterexample);
  sink.report("mutant(" + o.mutate + ")", *res.bad);
  sink.flush();
  std::printf("mutation '%s' caught by the checker (%zu recorded ops)\n",
              o.mutate.c_str(), res.ops);
  return kExitViolation;
}

}  // namespace

int run_check(int argc, char** argv) {
  cli_options defaults;
  defaults.threads = {4};
  defaults.duration_ms = 60;
  defaults.key_range = 24;  // small-key contention: overlap on every key
  defaults.prefill = 12;
  const cli_options o =
      harness::parse_cli(argc, argv, defaults, harness::kCheckFlags);
  const unsigned threads = o.threads[0];

  if (!o.mutate.empty()) {
    using harness::flag;
    if (o.given.any({flag::faults, flag::structure, flag::schemes,
                     flag::thread_count, flag::range})) {
      std::fprintf(stderr,
                   "--mutate is a fixed self-test (2p/2c over one mutant "
                   "container); --faults/--structure/--schemes/--threads/"
                   "--range do not compose with it\n");
      return kExitCli;
    }
    return run_mutation(o);
  }

  // A --structure filter naming a container makes --range dead; reject
  // it rather than silently ignoring (the figure binaries' convention
  // for exactly this flag class).
  if (!o.structure.empty() &&
      harness::scheme_registry::instance().kind_of(o.structure) ==
          harness::structure_kind::container &&
      o.given.has(harness::flag::range)) {
    std::fprintf(stderr,
                 "--range is a set-structure option; '%s' is a "
                 "container\n",
                 o.structure.c_str());
    return kExitCli;
  }

  lab::fault_plan plan;
  if (!harness::load_fault_plan(o, threads, lab::fault_loop::workload,
                                &plan)) {
    return kExitCli;
  }
  return run_matrix(o, plan, threads);
}

}  // namespace hyaline::check
