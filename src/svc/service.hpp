// Service scenario, part 5: the swarm driver.
//
// run_service<D> stands up a shard_router over scheme D, prefills it,
// and runs a tenant swarm against it for a fixed duration:
//
//   - every tenant is one worker thread with an open-loop pacer
//     (svc/loadgen.hpp) drawing Zipfian keys — the simulated slice of a
//     million-user population behind one connection;
//   - connection churn and stall-in-guard windows are lowered into a
//     lab::fault_plan (svc/tenant.hpp) and executed by the robustness
//     lab's fault_director — tenants poll its control words at op
//     boundaries exactly like the workload loops;
//   - hot-key and scan-storm windows run inline, unpaced, against the
//     router; a scripted tenant's latency goes to a separate histogram
//     so its self-inflicted backlog cannot pollute the victim numbers
//     the latency SLOs gate;
//   - the telemetry sampler aggregates retired/freed across all shard
//     domains into one time series for the memory SLOs.
//
// The swarm runs through the workload loops' own repetition lifecycle
// (harness/run_reps.hpp) — start, fault director, telemetry, teardown
// order and accounting are shared code; this file supplies the prefill,
// the tenant body, and the leak-gate reading after router shutdown
// (structures destroyed, domains drained).
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "harness/run_reps.hpp"
#include "harness/schemes.hpp"
#include "lab/fault_plan.hpp"
#include "lab/telemetry.hpp"
#include "smr/stats.hpp"
#include "svc/loadgen.hpp"
#include "svc/shard_router.hpp"
#include "svc/tenant.hpp"

namespace hyaline::svc {

struct service_config {
  unsigned shards = 4;
  unsigned tenants = 16;
  /// Total offered load across the swarm, ops/s, split evenly over the
  /// tenants; 0 = closed-loop (no pacing, latency CO-unsafe — only for
  /// saturation probes).
  double rate_ops_s = 0;
  arrival_kind arrival = arrival_kind::poisson;
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
  /// tenant hangs up and reconnects through tid_lease recycling.
  unsigned churn_period_ms = 0;
  std::size_t buckets_per_shard = 4096;
  /// Bad-tenant script (nullptr = everyone behaves). Must be validated
  /// against `tenants` and outlive the run.
  const tenant_plan* script = nullptr;
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
  /// (scans/steals/finalizes and the retire->free lag histogram).
  smr::stats_snapshot obs;
  /// Retire->free lag percentiles (ns) over all shards; zero when lag
  /// tracking was off.
  double lag_p50_ns = 0;
  double lag_p99_ns = 0;
  std::uint64_t lag_max_ns = 0;
};

template <class D>
service_result run_service(const harness::scheme_params& base,
                           const service_config& cfg) {
  using guard_t = typename D::guard;
  using clock = pacer::clock;
  assert(valid_service_mix(cfg) && "op-mix percentages must sum to 100");

  const unsigned tenants = cfg.tenants == 0 ? 1 : cfg.tenants;
  const tenant_plan no_script;
  const tenant_plan& script =
      cfg.script != nullptr ? *cfg.script : no_script;
  const lab::fault_plan plan = to_fault_plan(
      script, tenants, cfg.churn_period_ms, cfg.duration_ms);

  // Every tenant may touch every shard's domain, and churn replacements
  // transiently overlap their predecessors' leases — size each domain
  // with the lab's one headroom formula.
  harness::scheme_params p = base;
  p.max_threads = plan.lease_headroom(tenants);

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
    pacer pace(cfg.arrival, tenant_rate, cfg.seed ^ (w.tid * 0x9e37 + w.gen));
    const bool scripted = script.is_scripted(w.tid);
    w.separate_latency = scripted;
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
      // service's. Tenant scripts lower to no bursts.
      if (!w.poll_faults(
              [&](auto hold) {
                const unsigned s = w.tid % shards;
                guard_t g(router.domain(s));
                router.touch(g, s, rng.below(cfg.key_range));
                hold();
                pace.reanchor();
              },
              [] {})) {
        continue;
      }
      if (scripted) {
        const double t_ms =
            std::chrono::duration_cast<std::chrono::duration<double,
                                                             std::milli>>(
                clock::now() - w.rep_start())
                .count();
        if (const behavior_event* be = script.active(w.tid, t_ms)) {
          in_window = true;
          const auto t_op = clock::now();
          if (be->kind == behavior_kind::hot_keys) {
            // Hammer the hottest Zipf rank with unpaced writes: one
            // shard's bucket chain takes the retire churn.
            if ((w.ops() & 1) == 0) {
              router.put(0, 0);
            } else {
              router.del(0);
            }
          } else {
            router.scan(static_cast<unsigned>(rng.below(shards)),
                        rng.below(cfg.key_range), 256);
          }
          w.lat.record(intended_latency_ns(t_op, clock::now()));
          w.after_op();
          continue;
        }
        if (in_window) {
          in_window = false;
          pace.reanchor();  // the window's backlog was self-inflicted
        }
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
  // own stats block), then the lag buckets rehydrated through the shared
  // histogram math.
  for (const smr::stats* st : router.stats_pointers()) {
    res.obs.accumulate(st->snapshot());
  }
  const auto lagh = lab::latency_histogram::from_counts(
      res.obs.lag_bucket, res.obs.lag_max_ns);
  res.lag_p50_ns = lagh.percentile(0.50);
  res.lag_p99_ns = lagh.percentile(0.99);
  res.lag_max_ns = res.obs.lag_max_ns;
  return res;
}

}  // namespace hyaline::svc
