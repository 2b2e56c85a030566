// Workload drivers: a reimplementation of the measurement loop of the test
// framework the paper uses (Wen et al. [35]). Per data point (paper §6):
// prefill the structure with `prefill` elements, run `threads` workers
// for `duration_ms`, each drawing operations on keys uniform in
// [0, key_range); report Mops/sec and the mean retired-but-unreclaimed
// count sampled every kSampleEvery operations (Figures 9/12/14/16);
// repeat `repeats` times and average. Extras: stalled_threads (Figure
// 10a; the fault plan's `stall:tid@0+inf`), faults / sample_ms (the
// robustness lab, fig_timeline), and use_trim — one guard per thread,
// trim() after every operation instead of leave+enter (Figure 10b).
//
// Container workloads (fig_queue) run through run_container_workload: a
// producer/consumer split over a FIFO queue or stack, where every
// successful operation allocates or retires a node, with an exact
// conservation ledger — pushed (prefill included) == popped + drained.
//
// Both drivers supply only a prefill, an op body and a drain or ledger;
// the repetitions themselves are run_reps (harness/run_reps.hpp), which
// the service swarm shares.
//
// Correctness oracle (src/check): when workload_config::history is set,
// every operation — prefill and the container drain included — is
// recorded as a timestamped invocation/response interval with its result.
// Benchmark runs leave it null and pay one predicted-not-taken branch per
// operation.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "common/rng.hpp"
#include "harness/run_reps.hpp"
#include "harness/schemes.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "smr/stats.hpp"

namespace hyaline::harness {

struct workload_config {
  unsigned threads = 4;
  unsigned stalled_threads = 0;
  unsigned duration_ms = 500;
  unsigned repeats = 1;
  std::uint64_t key_range = 100000;
  std::size_t prefill = 50000;
  /// Percentages; must sum to 100. Paper: write = {50,50,0}, read = {5,5,90}
  /// ("90% get, 10% put", put split evenly between insert and remove to
  /// keep the size in equilibrium).
  unsigned insert_pct = 50;
  unsigned remove_pct = 50;
  unsigned get_pct = 0;
  bool use_trim = false;
  std::uint64_t seed = 0x5eed;
  /// Container workloads only: the producer/consumer thread split. Both
  /// zero means "derive from `threads`" (see container_split). Set drivers
  /// ignore these, exactly as container drivers ignore key_range and the
  /// op mix — the registry's structure-kind dimension keeps the two option
  /// families apart.
  unsigned producers = 0;
  unsigned consumers = 0;
  /// Robustness lab: scripted transient faults executed against every
  /// repetition (nullptr = none). stalled_threads is folded into the same
  /// machinery as stall@0+inf workers either way. The plan must outlive
  /// the run and have been validated against the worker-thread count.
  const lab::fault_plan* faults = nullptr;
  /// Telemetry cadence in ms; nonzero fills workload_result::timeline.
  /// Meant for single-repetition runs (fig_timeline): with repeats > 1
  /// only the last repetition's series is kept.
  unsigned sample_ms = 0;
  /// Correctness oracle: non-null turns history recording on — every
  /// operation lands in a per-thread append-only log of timestamped
  /// invocation/response intervals (check/history.hpp). The recorder must
  /// outlive the run; collect() only after the driver returned.
  check::history_recorder* history = nullptr;
  /// Per-thread operation budget (0 = none), checked at op boundaries:
  /// each worker leaves its loop after this many operations even if the
  /// duration has not elapsed, and the run ends as soon as every worker
  /// has retired its budget. This is what makes the --seed contract a
  /// determinism *guarantee* for single-threaded runs: a time-based stop
  /// cuts the op stream at a timing-dependent point, a budget does not.
  std::uint64_t op_limit = 0;
};

struct workload_result {
  double mops = 0;              ///< throughput, million operations / second
  double unreclaimed_avg = 0;   ///< mean retired-not-yet-freed per sample
  /// Worst retired-not-yet-freed value over all samples of all repeats —
  /// the number the paper's robustness bound (§5) actually caps, which an
  /// average can launder (a brief spike amortized over a long run looks
  /// harmless).
  std::uint64_t unreclaimed_peak = 0;
  std::uint64_t total_ops = 0;  ///< operations completed across all threads
  /// Per-op latency percentiles (ns) over the sampled operations (one in
  /// detail::kLatencyEvery ops is timed around guard + operation), and the
  /// exact maximum among them.
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
  std::uint64_t max_ns = 0;
  /// Final domain counters, captured after structure teardown and a
  /// quiescent drain (filled in by the registry runners; retired != freed
  /// means the scheme leaked).
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  /// Container workloads: the conservation ledger. Items pushed (prefill
  /// included), items popped during the run, and items drained from the
  /// residual at the end; enqueued == dequeued + drained or the container
  /// lost or duplicated values. Zero for set workloads.
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t drained = 0;
  /// Time series from the telemetry sampler (empty unless
  /// workload_config::sample_ms was set).
  std::vector<lab::sample_point> timeline;
  /// Full domain counter snapshot (scans/finalizes/lag histogram),
  /// captured by the registry runners after the quiescent drain. The lag
  /// buckets are all-zero unless obs::lag_tracking() was on for the run.
  smr::stats_snapshot obs;
  /// Retire->free lag percentiles rehydrated from obs.lag_bucket.
  lab::lag_percentiles lag;
};

/// True iff the op-mix percentages cover exactly the whole dice range.
/// A mix that does not sum to 100 silently skews the distribution (the
/// remainder falls through to get), so drivers reject it up front. Summed
/// in 64 bits so overflowing values cannot wrap back to 100.
constexpr bool valid_mix(const workload_config& cfg) {
  return std::uint64_t{cfg.insert_pct} + cfg.remove_pct + cfg.get_pct ==
         100;
}

namespace detail {

/// THE definition of how a history interval wraps an operation, shared by
/// every recording site (prefill, workers, bursts, drain): invocation
/// read, run `op` (which returns {ok, key/token}), response read, one
/// record. Keeping a single copy is what the checker's soundness argument
/// assumes — all op classes must be fenced and timed identically. Returns
/// the operation's `ok`.
template <class F>
bool record_op(check::thread_log* log, check::op_kind kind, F&& op) {
  if (log == nullptr) return op().first;
  const std::uint64_t t_inv = check::inv_now();
  const auto [ok, key] = op();
  log->record(kind, key, ok, t_inv, check::ret_now());
  return ok;
}

/// A fresh history log for `tid`, or null with the oracle off.
inline check::thread_log* log_for(const workload_config& cfg,
                                  std::uint32_t tid) {
  return cfg.history != nullptr ? &cfg.history->attach(tid) : nullptr;
}

template <class G>
concept has_trim = requires(G g) { g.trim(); };

/// The repetition spec of a workload over one domain: `threads` workers
/// under the user's fault plan, plus the legacy permanently-stalled extras
/// above them, expressed as what they are — workers that stall at t=0
/// forever. `plan` receives the merged plan and must outlive the run.
inline rep_spec rep_spec_of(const workload_config& cfg, unsigned threads,
                            lab::fault_plan& plan,
                            const smr::stats& counters) {
  if (cfg.faults != nullptr) plan = *cfg.faults;
  for (unsigned i = 0; i < cfg.stalled_threads; ++i) {
    plan.events.push_back({.kind = lab::fault_kind::stall,
                           .tid = threads + i,
                           .dur_ms = std::numeric_limits<double>::infinity()});
  }
  return {.workers = threads + cfg.stalled_threads,
          .repeats = cfg.repeats,
          .duration_ms = cfg.duration_ms,
          .op_limit = cfg.op_limit,
          .sample_ms = cfg.sample_ms,
          .faults = &plan,
          .stats = {&counters}};
}

inline workload_result to_result(run_totals t) {
  workload_result r;
  r.mops = t.mops;
  r.unreclaimed_avg = t.unreclaimed_avg;
  r.unreclaimed_peak = t.unreclaimed_peak;
  r.total_ops = t.ops;
  r.p50_ns = t.lat.percentile(0.50);
  r.p90_ns = t.lat.percentile(0.90);
  r.p99_ns = t.lat.percentile(0.99);
  r.max_ns = t.lat.max();
  r.timeline = std::move(t.timeline);
  return r;
}

}  // namespace detail

/// Resolved producer/consumer split for a container workload: explicit
/// counts win; otherwise `threads` is split evenly, producers taking the
/// odd one out (threads == 1 means a lone producer — pure enqueue is a
/// valid, maximally allocation-heavy workload; the drain still balances
/// the ledger).
struct thread_split {
  unsigned producers = 0;
  unsigned consumers = 0;
  unsigned total() const { return producers + consumers; }
};

constexpr thread_split container_split(const workload_config& cfg) {
  if (cfg.producers != 0 || cfg.consumers != 0) {
    return {cfg.producers, cfg.consumers};
  }
  const unsigned consumers = cfg.threads / 2;
  return {cfg.threads - consumers, consumers};
}

/// Run one configuration against structure `s` over domain `dom`.
/// DS must provide insert/remove/contains(guard&, key[, value]).
template <class DS, class D>
workload_result run_workload(D& dom, DS& s, const workload_config& cfg) {
  using guard_t = typename D::guard;
  assert(valid_mix(cfg) && "op-mix percentages must sum to 100");

  // --- prefill (quiescent) ---------------------------------------------
  {
    check::thread_log* plog = detail::log_for(cfg, check::kMainTid);
    xoshiro256 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    std::size_t live = 0;
    while (live < cfg.prefill) {
      guard_t g(dom);
      const std::uint64_t key = rng.below(cfg.key_range);
      if (detail::record_op(plog, check::op_kind::insert, [&] {
            return std::pair{s.insert(g, key, 1), key};
          })) {
        ++live;
      }
    }
    // The prefilling (main) thread takes no further guards: release any
    // burst-entry reservation so it cannot pin the epoch for the workers.
    detail::quiesce_thread(dom);
  }

  auto kind_of = [&](std::uint64_t dice) {
    return dice < cfg.insert_pct ? check::op_kind::insert
           : dice < cfg.insert_pct + cfg.remove_pct ? check::op_kind::remove
                                                    : check::op_kind::contains;
  };
  lab::fault_plan plan;
  run_totals t = run_reps(
      detail::rep_spec_of(cfg, cfg.threads, plan, dom.counters()),
      [&](worker_ctx& w) {
        xoshiro256 rng(cfg.seed + w.tid * 1000003 + w.rep * 7919);
        check::thread_log* hlog = detail::log_for(cfg, w.tid);
        // One operation plus (when the oracle is on) one history record
        // around it: the interval is taken tightly around the call, inside
        // the guard, so it contains the linearization point and nothing
        // else.
        auto apply = [&](guard_t& g, check::op_kind kind,
                         std::uint64_t key) -> bool {
          return detail::record_op(hlog, kind, [&] {
            switch (kind) {
              case check::op_kind::insert:
                return std::pair{s.insert(g, key, key), key};
              case check::op_kind::remove:
                return std::pair{s.remove(g, key), key};
              default:
                return std::pair{s.contains(g, key), key};
            }
          });
        };
        // The stalled-thread protocol's touch: read one node under the
        // guard that then blocks for the window.
        auto touch = [&](guard_t& g, auto& hold) {
          apply(g, check::op_kind::contains, rng.below(cfg.key_range));
          hold();
        };
        // One burst unit: remove a random key (a successful remove
        // retires its node) and reinsert to hold the size at equilibrium.
        auto burst_pair = [&](guard_t& g) {
          const std::uint64_t key = rng.below(cfg.key_range);
          if (apply(g, check::op_kind::remove, key)) {
            apply(g, check::op_kind::insert, key);
          }
        };
        // Trimming mode (§3.3): one guard spans regrip_every operations
        // and trim() after each op reclaims without touching Head;
        // re-entering bounds the retirement sublists. Fault polls run
        // under the held guard (a stall pins exactly what it pins).
        // Otherwise every poll and op enters its own guard, inside the
        // timed span.
        constexpr std::uint64_t regrip_every = 1024;
        std::optional<guard_t> held;
        auto in_guard = [&](auto&& f) {
          if (held) {
            f(*held);
            if constexpr (detail::has_trim<guard_t>) held->trim();
          } else {
            guard_t g(dom);
            f(g);
          }
        };
        for (std::uint64_t i = 0; w.keep_going(); ++i) {
          if (cfg.use_trim && i % regrip_every == 0) held.emplace(dom);
          if (!w.poll_faults(
                  [&](auto hold) {
                    in_guard([&](guard_t& g) { touch(g, hold); });
                  },
                  [&] { in_guard(burst_pair); })) {
            continue;
          }
          const std::uint64_t key = rng.below(cfg.key_range);
          const auto kind = kind_of(rng.below(100));
          w.timed_op(
              [&] { in_guard([&](guard_t& g) { apply(g, kind, key); }); });
        }
        held.reset();
        detail::flush_thread(dom);
        detail::quiesce_thread(dom);
      });
  return detail::to_result(std::move(t));
}

/// Run one producer/consumer configuration against container `q` over
/// domain `dom`. Q must provide push(guard&, value) and
/// try_pop(guard&, value&) (ms_queue, treiber_stack). Producers push
/// monotonically stamped values as fast as they can; consumers pop (an
/// empty pop still counts as an operation — spinning on an empty queue is
/// real work the throughput number must not hide). After the timed
/// repeats, the residual content is drained quiescently so the
/// conservation ledger (enqueued == dequeued + drained) can be checked by
/// the caller. Fault plans and telemetry apply exactly as in
/// run_workload; burst events run push+pop pairs (each successful pop
/// retires a node) with both sides entered into the ledger.
template <class Q, class D>
workload_result run_container_workload(D& dom, Q& q,
                                       const workload_config& cfg) {
  using guard_t = typename D::guard;
  const thread_split split = container_split(cfg);
  assert(split.total() > 0 && "container workload needs at least 1 thread");

  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> dequeued{0};
  /// Token source for pushed values: every worker invocation (churn
  /// replacements included) draws a distinct high-bit base, and the
  /// prefill owns base 0, so every value ever pushed is unique — the
  /// linearizability oracle's token matching depends on it, and nothing
  /// else reads the payloads (the FIFO/LIFO property tests stamp their
  /// own).
  std::atomic<std::uint64_t> stamp_src{1};
  auto pop = [&](guard_t& g, check::thread_log* log) {
    return detail::record_op(log, check::op_kind::pop, [&] {
      std::uint64_t v = 0;
      const bool ok = q.try_pop(g, v);
      return std::pair{ok, ok ? v : 0};
    });
  };

  // --- prefill (quiescent) ---------------------------------------------
  {
    check::thread_log* plog = detail::log_for(cfg, check::kMainTid);
    for (std::size_t i = 0; i < cfg.prefill; ++i) {
      guard_t g(dom);
      detail::record_op(plog, check::op_kind::push, [&] {
        q.push(g, i);
        return std::pair{true, std::uint64_t{i}};
      });
    }
    detail::quiesce_thread(dom);  // main thread idles while workers run
  }
  enqueued.fetch_add(cfg.prefill, std::memory_order_relaxed);

  lab::fault_plan plan;
  run_totals t = run_reps(
      detail::rep_spec_of(cfg, split.total(), plan, dom.counters()),
      [&](worker_ctx& w) {
        const bool producing = w.tid < split.producers;
        check::thread_log* hlog = detail::log_for(cfg, w.tid);
        std::uint64_t local_enq = 0;
        std::uint64_t local_deq = 0;
        std::uint64_t stamp =
            stamp_src.fetch_add(1, std::memory_order_relaxed) << 40;
        auto do_push = [&](guard_t& g) {
          const std::uint64_t v = stamp++;
          detail::record_op(hlog, check::op_kind::push, [&] {
            q.push(g, v);
            return std::pair{true, v};
          });
          ++local_enq;
        };
        auto do_pop = [&](guard_t& g) {
          if (pop(g, hlog)) ++local_deq;
        };
        while (w.keep_going()) {
          // Containers have no read-only touch: holding the guard alone
          // pins whatever the scheme's reservation pins. A burst unit is
          // a retire-generating pair with an exact ledger: the push is
          // counted, and the pop (usually of the just-pushed value)
          // retires one node.
          if (!w.poll_faults(
                  [&](auto hold) {
                    guard_t g(dom);
                    hold();
                  },
                  [&] {
                    guard_t g(dom);
                    do_push(g);
                    do_pop(g);
                  })) {
            continue;
          }
          w.timed_op([&] {
            guard_t g(dom);
            if (producing) {
              do_push(g);
            } else {
              do_pop(g);
            }
          });
        }
        enqueued.fetch_add(local_enq, std::memory_order_relaxed);
        dequeued.fetch_add(local_deq, std::memory_order_relaxed);
        detail::flush_thread(dom);
        detail::quiesce_thread(dom);
      });

  // --- drain (quiescent) -----------------------------------------------
  // Pop the residual so the ledger closes and every node the structure
  // still owns besides the ms_queue dummy flows through retire. Recorded
  // like any other ops (the trailing empty pop too): the drain is part of
  // the container's checkable life, and it is what lets the oracle call
  // the history complete.
  std::uint64_t drained = 0;
  for (check::thread_log* dlog = detail::log_for(cfg, check::kMainTid);;) {
    guard_t g(dom);
    if (!pop(g, dlog)) break;
    ++drained;
  }
  detail::flush_thread(dom);
  detail::quiesce_thread(dom);  // the drain loop above took guards

  workload_result r = detail::to_result(std::move(t));
  r.enqueued = enqueued.load(std::memory_order_relaxed);
  r.dequeued = dequeued.load(std::memory_order_relaxed);
  r.drained = drained;
  return r;
}

}  // namespace hyaline::harness
