// Service scenario, part 4: the swarm driver.
//
// run_service<D> stands up a shard_router over scheme D, prefills it,
// and runs a tenant swarm against it for a fixed duration:
//
//   - every tenant is one worker thread (one client connection) with an
//     open-loop pacer (svc/loadgen.hpp) drawing Zipfian keys — the
//     simulated slice of a million-user population behind one
//     connection;
//   - bad tenants follow a lab::fault_plan (--faults, grammar in
//     lab/fault_plan.hpp) run by the robustness lab's fault_director:
//     stall and churn as in the workload loops, plus the window only
//     this loop runs — hot, unpaced writes to the hottest key, inline
//     against the router. A tenant a window names is scripted: its
//     latency goes to a separate histogram so its self-inflicted backlog
//     cannot pollute the victim numbers the latency SLOs gate;
//   - periodic connection churn (add_churn) joins the plan as churn
//     events over the tenants no event names;
//   - the telemetry sampler aggregates retired/freed across all shard
//     domains into one time series for the memory SLOs.
//
// The swarm runs through the workload loops' own repetition lifecycle
// (harness/run_reps.hpp) — start, fault director, telemetry, teardown
// order and accounting are shared code; this file supplies the prefill,
// the tenant body, and the leak-gate reading after router shutdown
// (structures destroyed, domains drained).
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "harness/run_reps.hpp"
#include "harness/schemes.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "smr/stats.hpp"
#include "svc/loadgen.hpp"
#include "svc/shard_router.hpp"

namespace hyaline::svc {

struct service_config {
  unsigned shards = 4;
  unsigned tenants = 16;
  /// Total offered load across the swarm, ops/s, split evenly over the
  /// tenants, in Poisson arrivals; 0 = closed-loop (no pacing, latency
  /// CO-unsafe — only for saturation probes).
  double rate_ops_s = 0;
  /// Zipfian skew over [0, key_range); 0 = uniform, 0.99 = YCSB default.
  double zipf_theta = 0.99;
  std::uint64_t key_range = 100000;
  std::size_t prefill = 50000;
  /// Op mix, percent; must sum to 100. Cache default: read-mostly.
  unsigned insert_pct = 5;
  unsigned remove_pct = 5;
  unsigned get_pct = 90;
  unsigned duration_ms = 2000;
  unsigned sample_ms = 20;  ///< telemetry cadence; 0 = no timeline
  std::uint64_t seed = 0x5eed;
  /// Connection-churn period (0 = none): every period one well-behaved
  /// tenant hangs up and reconnects as a new thread, which takes the
  /// lowest record id free in each domain it touches.
  unsigned churn_period_ms = 0;
  std::size_t buckets_per_shard = 4096;
  /// Bad-tenant schedule (nullptr = everyone behaves). Must pass
  /// validate_tids(tenants) and runs_on(fault_loop::service), and outlive
  /// the run.
  const lab::fault_plan* faults = nullptr;
};

constexpr bool valid_service_mix(const service_config& cfg) {
  return std::uint64_t{cfg.insert_pct} + cfg.remove_pct + cfg.get_pct ==
         100;
}

struct service_result {
  lab::latency_histogram victim_hist;    ///< well-behaved tenants, CO-safe
  lab::latency_histogram scripted_hist;  ///< bad tenants (reported only)
  std::vector<lab::sample_point> timeline;
  std::vector<shard_snapshot> shards;  ///< post-shutdown, leak-gate state
  std::uint64_t ops = 0;               ///< tenant ops (prefill excluded)
  std::uint64_t retired = 0;           ///< summed across shard domains
  std::uint64_t freed = 0;
  std::uint64_t unreclaimed_peak = 0;  ///< worst timeline sample
  double duration_s = 0;
  double mops = 0;
  /// Domain counters summed across every shard domain after shutdown
  /// (scans/finalizes and the retire->free lag histogram).
  smr::stats_snapshot obs;
  /// Retire->free lag percentiles over all shards.
  lab::lag_percentiles lag;
};

/// True if a stall or hot window names `tenant`. Churn events never mark
/// a tenant as scripted.
inline bool scripted(const lab::fault_plan& plan, unsigned tenant) {
  return std::any_of(plan.events.begin(), plan.events.end(),
                     [&](const lab::fault_event& e) {
                       return lab::windowed(e.kind) && e.tid == tenant;
                     });
}

/// The SLO disturbance window: the earliest window opening and the latest
/// closing. {+infinity, 0} when the plan has no window, so churn alone
/// reads as no scripted disturbance.
struct disturbance {
  double start_ms = std::numeric_limits<double>::infinity();
  double end_ms = 0;
};

inline disturbance disturbance_of(const lab::fault_plan& plan) {
  disturbance d;
  for (const lab::fault_event& e : plan.events) {
    if (!lab::windowed(e.kind)) continue;
    d.start_ms = std::min(d.start_ms, e.start_ms);
    d.end_ms = std::max(d.end_ms, e.end_ms());
  }
  return d;
}

/// Append periodic connection churn to `plan`: a churn event every
/// `period_ms` (0 = none) strictly inside the run, cycling over the
/// tenants no event of the plan names (every tenant when all are named).
/// Bad tenants keep their windows; well-behaved connections recycle.
inline void add_churn(lab::fault_plan& plan, unsigned tenants,
                      unsigned period_ms, double duration_ms) {
  if (period_ms == 0 || tenants == 0) return;
  std::vector<unsigned> victims;
  for (unsigned t = 0; t < tenants; ++t) {
    const bool named =
        std::any_of(plan.events.begin(), plan.events.end(),
                    [&](const lab::fault_event& e) { return e.tid == t; });
    if (!named) victims.push_back(t);
  }
  if (victims.empty()) {
    for (unsigned t = 0; t < tenants; ++t) victims.push_back(t);
  }
  std::size_t next = 0;
  for (double t = period_ms; t < duration_ms; t += period_ms) {
    plan.events.push_back({.kind = lab::fault_kind::churn,
                           .tid = victims[next++ % victims.size()],
                           .start_ms = t});
  }
}

template <class D>
service_result run_service(const harness::scheme_params& base,
                           const service_config& cfg) {
  using guard_t = typename D::guard;
  using clock = pacer::clock;
  assert(valid_service_mix(cfg) && "op-mix percentages must sum to 100");

  const unsigned tenants = cfg.tenants == 0 ? 1 : cfg.tenants;
  lab::fault_plan plan =
      cfg.faults != nullptr ? *cfg.faults : lab::fault_plan{};
  add_churn(plan, tenants, cfg.churn_period_ms, cfg.duration_ms);

  // Every tenant may touch every shard's domain, and so does this thread,
  // which prefills.
  harness::scheme_params p = base;
  p.slot_threads = tenants + 1;

  shard_router<D> router(
      cfg.shards, [&] { return harness::scheme_traits<D>::make(p); },
      cfg.buckets_per_shard);
  const unsigned shards = router.shards();

  // --- prefill (quiescent) ---------------------------------------------
  {
    xoshiro256 rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
    std::size_t live = 0;
    while (live < cfg.prefill) {
      if (router.put(rng.below(cfg.key_range), 1)) ++live;
    }
    router.thread_quiesce();  // main thread idles while tenants run
  }

  const zipf_generator zipf(cfg.key_range, cfg.zipf_theta);
  const double tenant_rate = cfg.rate_ops_s / tenants;

  const harness::rep_spec spec{.workers = tenants,
                               .duration_ms = cfg.duration_ms,
                               .sample_ms = cfg.sample_ms,
                               .faults = &plan,
                               .stats = router.stats_pointers(),
                               .role = "tenant"};
  auto tenant = [&](harness::worker_ctx& w) {
    // Churn replacements (gen > 0) get fresh randomness: a reconnecting
    // user is a different request stream, not a replay.
    xoshiro256 rng(cfg.seed + w.tid * 1000003 + w.gen * 7919 + 1);
    pacer pace(arrival_kind::poisson, tenant_rate,
               cfg.seed ^ (w.tid * 0x9e37 + w.gen));
    w.separate_latency = scripted(plan, w.tid);
    bool in_window = false;

    auto good_op = [&](std::uint64_t key) {
      const std::uint64_t dice = rng.below(100);
      if (dice < cfg.insert_pct) {
        router.put(key, key);
      } else if (dice < cfg.insert_pct + cfg.remove_pct) {
        router.del(key);
      } else {
        std::uint64_t out = 0;
        router.get(key, out);
      }
    };

    // Each tenant anchors its own schedule at its own loop entry, so a
    // churn replacement starts fresh instead of inheriting the backlog
    // of a schedule anchored at run start.
    pace.anchor(clock::now());
    while (w.keep_going()) {
      // Stall-in-guard: enter one shard's domain, touch a node so the
      // guard pins something, and block for the window. The blast radius
      // is that shard; the others keep reclaiming. A stalled tenant is a
      // scripted tenant: its pacer backlog is the fault's doing, not the
      // service's.
      if (!w.poll_faults([&](auto hold) {
            const unsigned s = w.tid % shards;
            guard_t g(router.domain(s));
            router.touch(g, s, rng.below(cfg.key_range));
            hold();
            pace.reanchor();
          })) {
        continue;
      }
      if (w.hot()) {
        // Hammer the hottest Zipf rank with unpaced writes: one shard's
        // bucket chain takes the retire churn.
        in_window = true;
        const auto t_op = clock::now();
        if ((w.ops() & 1) == 0) {
          router.put(0, 0);
        } else {
          router.del(0);
        }
        w.lat.record(intended_latency_ns(t_op, clock::now()));
        w.after_op();
        continue;
      }
      if (in_window) {
        in_window = false;
        pace.reanchor();  // the window's backlog was self-inflicted
      }
      const clock::time_point intended =
          pace.paced() ? pace.next_intended() : clock::now();
      if (pace.paced() && !pacer::await(intended, w.stop_flag())) break;
      good_op(zipf(rng));
      w.lat.record(intended_latency_ns(intended, clock::now()));
      w.after_op();
    }
    router.thread_quiesce();
  };
  harness::run_totals t = harness::run_reps(spec, tenant);

  service_result res;
  res.victim_hist = std::move(t.lat);
  res.scripted_hist = std::move(t.lat_separate);
  res.timeline = std::move(t.timeline);
  res.ops = t.ops;
  res.duration_s = t.seconds;
  res.mops = t.mops;
  for (const lab::sample_point& pt : res.timeline) {
    if (pt.unreclaimed > res.unreclaimed_peak) {
      res.unreclaimed_peak = pt.unreclaimed;
    }
  }

  // Leak gate: destroy structures, drain every shard domain, and read
  // the final ledger. retired != freed afterwards means the scheme
  // leaked under churn + faults.
  router.shutdown();
  res.shards = router.snapshot();
  for (const shard_snapshot& s : res.shards) {
    res.retired += s.retired;
    res.freed += s.freed;
  }
  // Full counter state, summed across the shard domains (each owns its
  // own stats block).
  for (const smr::stats* st : router.stats_pointers()) {
    res.obs.accumulate(st->snapshot());
  }
  res.lag = lab::lag_percentiles_of(res.obs);
  return res;
}

}  // namespace hyaline::svc
