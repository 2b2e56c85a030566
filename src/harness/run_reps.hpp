// The repetition lifecycle every measurement loop shares: the set and trim
// loops, the container loop (harness/workload.hpp) and the service swarm
// (svc/service.hpp) supply a per-worker body; run_reps owns the rest —
// start/stop flags, the fault director (churn replacements spawned and
// named), telemetry over one or many stats blocks, the wait for the
// deadline or the op budget, the teardown order, and the per-repetition
// Mops / unreclaimed / latency accounting.
//
// A body runs once per worker invocation with its own worker_ctx: it loops
// on keep_going(), calls poll_faults() at each op boundary (and the
// service swarm reads hot() after it), and runs each op through
// timed_op() — or records its own latency into `lat` and calls
// after_op(). History logs, ledgers and the thread's SMR exit (flush,
// quiesce) stay with the body.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "obs/trace.hpp"
#include "smr/stats.hpp"

namespace hyaline::harness {

namespace detail {
/// Latency-sampling period: one in this many operations is timed.
/// Sampling keeps the two clock reads off the common path so the histogram
/// does not perturb the throughput it is measured alongside. A power of
/// two, so the per-op test is a mask.
inline constexpr std::uint64_t kLatencyEvery = 32;
static_assert(std::has_single_bit(kLatencyEvery));
}  // namespace detail

/// Every worker reads the unreclaimed count once per this many of its
/// operations; the mean and the peak of those reads are the unreclaimed
/// columns (Figures 9/12/14/16).
inline constexpr std::uint64_t kSampleEvery = 128;

struct rep_spec {
  unsigned workers = 1;  ///< primary worker tids are [0, workers)
  unsigned repeats = 1;
  unsigned duration_ms = 500;
  /// Per-worker op budget (0 = none); a repetition ends as soon as every
  /// worker has spent it.
  std::uint64_t op_limit = 0;
  unsigned sample_ms = 0;  ///< telemetry cadence; 0 = no timeline
  /// Null or empty = fault-free. Validated against `workers`; outlives
  /// the run.
  const lab::fault_plan* faults = nullptr;
  std::vector<const smr::stats*> stats;  ///< sampled and telemetered
  const char* role = "worker";  ///< thread names: "<role>-<tid>"
};

struct run_totals {
  std::uint64_t ops = 0;
  double seconds = 0;  ///< summed over repetitions
  double mops = 0;     ///< mean over repetitions
  /// Mean over repetitions of the sampled mean; a repetition too short to
  /// sample contributes its end-of-run count.
  double unreclaimed_avg = 0;
  /// Worst sample of any repetition — what the paper's robustness bound
  /// (§5) caps, and an average can launder.
  std::uint64_t unreclaimed_peak = 0;
  lab::latency_histogram lat;           ///< workers' `lat`, merged...
  lab::latency_histogram lat_separate;  ///< ...or kept apart (see ctx)
  std::vector<lab::sample_point> timeline;  ///< last repetition's
};

namespace detail {

/// Relaxed monotone max — the peak counter is a statistic, not
/// synchronization (same stance as smr::stats).
inline void atomic_max(std::atomic<std::uint64_t>& m, std::uint64_t v) {
  std::uint64_t cur = m.load(std::memory_order_relaxed);
  while (cur < v &&
         !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

inline std::uint64_t unreclaimed(const std::vector<const smr::stats*>& st) {
  std::uint64_t n = 0;
  for (const smr::stats* s : st) n += s->unreclaimed();
  return n;
}

struct rep_state {
  const rep_spec& spec;
  const unsigned rep;
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};  ///< workers publish theirs at exit
  std::atomic<std::uint64_t> sample_sum{0};
  std::atomic<std::uint64_t> sample_cnt{0};
  lab::fault_director* dir = nullptr;
  lab::telemetry_collector* tele = nullptr;
};

}  // namespace detail

/// One worker invocation's view of its repetition.
class worker_ctx {
 public:
  const unsigned tid;
  const std::uint32_t gen;  ///< 0 = primary; churn replacements count up
  const unsigned rep;
  lab::latency_histogram lat;  ///< merged into the run's at exit
  /// Merge `lat` into run_totals::lat_separate instead: a misbehaving
  /// worker's self-inflicted latency must stay out of the gated numbers.
  bool separate_latency = false;

  std::uint64_t ops() const { return ops_; }
  const std::atomic<bool>& stop_flag() const { return st_.stop; }

  /// True while a hot window is open on this worker (false without a
  /// fault plan). Only the service swarm runs hot windows; the workload
  /// loops never see one open.
  bool hot() const { return st_.dir != nullptr && st_.dir->hot(tid); }

  /// False once the director retired this generation, the stop flag is
  /// up, or the op budget is spent. A fault-free worker completes one op
  /// before honoring stop: under heavy instrumentation (TSan) on a loaded
  /// machine the deadline can expire before a worker is first scheduled,
  /// and a zero-op rep is indistinguishable from a hang to the validators
  /// downstream. Not under a fault plan: a worker stalled at t=0 never
  /// counts an op, so the guarantee would turn its release into a spin.
  bool keep_going() const {
    if (st_.dir != nullptr && st_.dir->exited(tid, gen)) return false;
    return ((ops_ == 0 && st_.dir == nullptr) ||
            !st_.stop.load(std::memory_order_relaxed)) &&
           within_limit();
  }

  /// The fault poll. An open stall window runs `touch(hold)`: the body
  /// enters a guard, touches what it can, and calls hold(), which blocks
  /// for the window with the guard held (the paper's stalled-thread
  /// protocol); false is returned so the caller re-checks keep_going().
  template <class Touch>
  bool poll_faults(Touch&& touch) {
    lab::fault_director* const dir = st_.dir;
    if (dir == nullptr || !dir->stalled(tid)) return true;
    touch([&] {
      obs::emit(obs::event::stall_begin, tid);
      dir->wait_stall_end(tid);
      obs::emit(obs::event::stall_end, tid);
    });
    return false;
  }

  /// Run one op — timed, all of `op`, once in kLatencyEvery ops — then
  /// after_op().
  template <class Op>
  void timed_op(Op&& op) {
    using clock = std::chrono::steady_clock;
    const bool timed = ops_ % detail::kLatencyEvery == 0;
    const auto t = timed ? clock::now() : clock::time_point{};
    op();
    if (timed) {
      lat.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                               t)
              .count()));
    }
    after_op();
  }

  /// Count one completed op: telemetry, and every kSampleEvery ops one
  /// unreclaimed sample.
  void after_op() {
    ++ops_;
    if (st_.tele != nullptr) st_.tele->on_op(tid);
    if (ops_ % kSampleEvery == 0) {
      const std::uint64_t u = detail::unreclaimed(st_.spec.stats);
      if (u > peak_) peak_ = u;
      st_.sample_sum.fetch_add(u, std::memory_order_relaxed);
      st_.sample_cnt.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  template <class Body>
  friend run_totals run_reps(const rep_spec& spec, Body&& body);

  worker_ctx(detail::rep_state& st, unsigned t, std::uint32_t g)
      : tid(t), gen(g), rep(st.rep), st_(st) {}

  bool within_limit() const {
    return st_.spec.op_limit == 0 || ops_ < st_.spec.op_limit;
  }

  detail::rep_state& st_;
  std::uint64_t ops_ = 0;
  std::uint64_t peak_ = 0;
};

/// Run spec.repeats repetitions of `body(worker_ctx&)` on spec.workers
/// threads (plus churn replacements) and fold them into totals.
template <class Body>
run_totals run_reps(const rep_spec& spec, Body&& body) {
  using clock = std::chrono::steady_clock;
  run_totals out;
  std::mutex lat_mu;  // guards out.lat and out.lat_separate
  std::atomic<std::uint64_t> peak{0};
  double mops_sum = 0;
  double unreclaimed_sum = 0;

  for (unsigned rep = 0; rep < spec.repeats; ++rep) {
    detail::rep_state st{spec, rep};
    auto worker = [&](unsigned tid, std::uint32_t gen) {
      char name[16];
      std::snprintf(name, sizeof name, "%s-%u",
                    gen == 0 ? spec.role : "churn", tid);
      obs::name_thread(name);
      worker_ctx w(st, tid, gen);
      if (st.tele != nullptr) st.tele->thread_enter();
      while (!st.start.load(std::memory_order_acquire)) {
      }
      body(w);
      st.ops.fetch_add(w.ops_, std::memory_order_relaxed);
      detail::atomic_max(peak, w.peak_);
      {
        std::lock_guard<std::mutex> lk(lat_mu);
        (w.separate_latency ? out.lat_separate : out.lat).merge(w.lat);
      }
      if (st.tele != nullptr) st.tele->thread_exit();
    };

    // Churn replacements, spawned by the director's clock thread, are
    // joined after the primaries: the director is stopped first, so the
    // clock thread no longer appends by then.
    std::vector<std::thread> replacements;
    std::mutex spawn_mu;
    std::optional<lab::fault_director> dir;
    if (spec.faults != nullptr && !spec.faults->empty()) {
      dir.emplace(*spec.faults, spec.workers, [&](unsigned tid) {
        const std::uint32_t gen = dir->generation(tid);
        std::lock_guard<std::mutex> lk(spawn_mu);
        replacements.emplace_back(worker, tid, gen);
      });
      st.dir = &*dir;
    }
    std::optional<lab::telemetry_collector> tele;
    if (spec.sample_ms != 0) {
      tele.emplace(spec.workers, spec.sample_ms, spec.stats);
      st.tele = &*tele;
    }

    std::vector<std::thread> primaries;
    for (unsigned t = 0; t < spec.workers; ++t) {
      primaries.emplace_back(worker, t, std::uint32_t{0});
    }
    const auto t0 = clock::now();
    st.start.store(true, std::memory_order_release);
    if (dir) dir->start();
    if (tele) tele->start();
    // The full duration, or — on op-budget runs — until every worker has
    // published its budget, so budgeted tests cost their op count rather
    // than their worst-case wall clock.
    const auto deadline = t0 + std::chrono::milliseconds(spec.duration_ms);
    if (spec.op_limit == 0) {
      std::this_thread::sleep_until(deadline);
    } else {
      while (clock::now() < deadline &&
             st.ops.load(std::memory_order_relaxed) <
                 std::uint64_t{spec.workers} * spec.op_limit) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // Teardown order: the director stops before the joins (it releases
    // in-guard stall waits — a stalled worker cannot observe stop until
    // released), and so does telemetry (teardown samples would record the
    // count after per-thread flushes, a drop the recovery check must not
    // credit to the scheme).
    st.stop.store(true, std::memory_order_release);
    if (dir) dir->stop();
    if (tele) {
      tele->stop();
      out.timeline = tele->take_points();
    }
    for (auto& th : primaries) th.join();
    for (auto& th : replacements) th.join();
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();

    const std::uint64_t n = st.ops.load(std::memory_order_relaxed);
    out.ops += n;
    out.seconds += secs;
    mops_sum += static_cast<double>(n) / secs / 1e6;
    const std::uint64_t cnt = st.sample_cnt.load(std::memory_order_relaxed);
    if (cnt == 0) {
      const std::uint64_t end = detail::unreclaimed(spec.stats);
      detail::atomic_max(peak, end);
      unreclaimed_sum += static_cast<double>(end);
    } else {
      unreclaimed_sum +=
          static_cast<double>(st.sample_sum.load(std::memory_order_relaxed)) /
          static_cast<double>(cnt);
    }
  }
  out.mops = mops_sum / spec.repeats;
  out.unreclaimed_avg = unreclaimed_sum / spec.repeats;
  out.unreclaimed_peak = peak.load(std::memory_order_relaxed);
  return out;
}

}  // namespace hyaline::harness
