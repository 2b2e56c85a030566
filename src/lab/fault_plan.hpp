// Robustness lab, part 1: the fault-injection scheduler.
//
// A fault plan is a declarative schedule of transient faults parsed from a
// `--faults` CLI spec and executed against a running workload by a lab
// clock thread. The workload loops poll per-thread atomic control words at
// operation boundaries, so injection never blocks the measured path.
//
// Spec grammar (times default to milliseconds; `ns`/`us`/`ms`/`s`
// suffixes):
//
//   spec   := event (',' event)*
//   event  := 'stall' ':' tid '@' start '+' dur     dur may be 'inf'
//           | 'hot'   ':' tid '@' start '+' dur
//           | 'churn' ':' tid '@' start
//
//   stall  — thread `tid` enters a guard, touches one node, and blocks
//            holding the guard for `dur` (the paper's stalled-thread
//            protocol; the harness's old permanently-stalled mode is the
//            degenerate case `stall:tid@0+inf`).
//   hot    — thread `tid` hammers the hottest key with unpaced writes for
//            the window (service swarm only).
//   churn  — thread `tid` leaves the run (its OS thread returns,
//            releasing its SMR thread identity) and a replacement thread
//            joins immediately, exercising thread-identity recycling
//            mid-run.
//
// Stall and hot are windowed: the director flips a per-thread control
// word when the window opens and again when it closes. Each loop runs only
// the kinds it has a body for (fault_plan::runs_on).
//
// Example: `stall:2@500ms+300ms,churn:4@1s`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/align.hpp"

namespace hyaline::lab {

enum class fault_kind { stall, hot, churn };

/// Stall and hot hold a window on one thread; churn fires once.
constexpr bool windowed(fault_kind k) { return k != fault_kind::churn; }

/// The loop a plan drives. The workload loops (fig_timeline, check) have
/// no hot-key writes to switch to. The service swarm's SLO needs every
/// window to close.
enum class fault_loop { workload, service };

struct fault_event {
  fault_kind kind = fault_kind::stall;
  unsigned tid = 0;
  double start_ms = 0;
  /// Window length; +infinity = never ends (stall only).
  double dur_ms = 0;

  double end_ms() const { return start_ms + dur_ms; }
};

struct fault_plan {
  std::vector<fault_event> events;
  /// The original spec text, echoed into the --json config block.
  std::string spec;

  bool empty() const { return events.empty(); }

  /// Reject events targeting a thread id the workload will not run.
  bool validate_tids(unsigned worker_threads, std::string* err) const;

  /// Reject events `loop` cannot run: hot windows under the workload
  /// loops, never-ending windows under the service swarm.
  bool runs_on(fault_loop loop, std::string* err) const;

  /// Start of the earliest event (0 when empty).
  double first_start_ms() const;

  /// When the last fault clears, or nullopt if any event never ends —
  /// the recovery check needs a fault-free tail to measure.
  std::optional<double> last_end_ms() const;
};

/// Parse a --faults spec. Returns nullopt with a message in *err on any
/// syntax or range error (unknown kind, missing '@', non-positive
/// window, ...).
std::optional<fault_plan> parse_fault_plan(std::string_view spec,
                                           std::string* err);

/// Consume a time value with an optional `ns`/`us`/`ms`/`s` suffix
/// (milliseconds when bare), advancing *p past it; false on negative,
/// infinite or non-numeric input. Shared with the svc SLO grammar so every
/// spec in the suite spells time the same way.
bool parse_time_ms(const char*& p, double* out);

/// Executes a fault plan against one workload repetition. The director's
/// clock thread walks the schedule and flips per-thread control words;
/// workers poll them at operation boundaries through the accessors below,
/// which are all wait-free except the deliberate in-guard stall wait.
class fault_director {
 public:
  /// `threads` = highest worker tid + 1. `spawn`, called from the clock
  /// thread at churn events, must start a replacement worker for the tid
  /// (capture the generation with `generation(tid)` before launching).
  fault_director(const fault_plan& plan, unsigned threads,
                 std::function<void(unsigned)> spawn = {});
  ~fault_director();

  fault_director(const fault_director&) = delete;
  fault_director& operator=(const fault_director&) = delete;

  /// Launch the clock thread; the schedule's t=0 is now.
  void start();

  /// End the run: releases every in-guard stall wait and joins the clock
  /// thread. Call after flipping the workload's stop flag and before
  /// joining workers (a stalled worker cannot observe stop until
  /// released). Idempotent.
  void stop();

  // --- worker-side polls (call at operation boundaries) ------------------

  /// True once a churn event retired this worker's generation; the
  /// worker must leave its loop through the normal exit path.
  bool exited(unsigned tid, std::uint32_t my_gen) const {
    return ctl_[tid]->exit_gen.load(std::memory_order_relaxed) != my_gen;
  }

  /// Current generation for `tid` (a replacement worker's my_gen).
  std::uint32_t generation(unsigned tid) const {
    return ctl_[tid]->exit_gen.load(std::memory_order_relaxed);
  }

  bool stalled(unsigned tid) const {
    return ctl_[tid]->stall_depth.load(std::memory_order_relaxed) != 0;
  }

  /// Block while the stall window is open (or until stop()). The caller
  /// holds a guard, so whatever the scheme's reservation pins stays
  /// pinned for the whole window — that is the fault.
  void wait_stall_end(unsigned tid) const;

  /// True while a hot window is open on `tid`.
  bool hot(unsigned tid) const {
    return ctl_[tid]->hot_depth.load(std::memory_order_relaxed) != 0;
  }

 private:
  struct control {
    std::atomic<std::uint32_t> stall_depth{0};
    std::atomic<std::uint32_t> hot_depth{0};
    std::atomic<std::uint32_t> exit_gen{0};
  };

  /// One scheduled control-word flip (a window expands to two).
  struct action {
    double t_ms;
    fault_kind kind;
    unsigned tid;
    bool begin;  ///< window open vs close
    /// Applied synchronously in the constructor (t=0 window opens,
    /// including the legacy permanently-stalled mode) so their effect
    /// does not wait on the clock thread being scheduled; the clock
    /// skips them.
    bool pre_applied = false;
  };

  void apply(const action& a);
  void run_clock();

  std::vector<padded<control>> ctl_;
  std::vector<action> actions_;  ///< sorted by t_ms
  std::function<void(unsigned)> spawn_;
  std::atomic<bool> quit_{false};
  std::atomic<bool> released_{false};
  std::thread clock_;
};

}  // namespace hyaline::lab
