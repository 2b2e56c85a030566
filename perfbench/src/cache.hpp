// cache-stall: open-loop tenants on a 4-shard svc::shard_router, with a
// reader that stalls mid-run.
//
// 3 tenants draw Poisson arrivals at a fixed total rate and busy-wait to
// each intended start (no sleeping pacer, so the kernel's timer wakeup
// never lands in the latency). The end-to-end latency is completion minus
// actual start; lateness (actual minus intended start) is the wait, and
// completion minus intended start is reported beside both. Keys are Zipf(0.99) over 100000,
// 50000 prefilled. In the middle third of each measured phase the main
// thread, which otherwise only samples memory, touches a key on shard 0
// and holds that guard: a stalled reader without a fifth thread.
#pragma once

#include <cmath>
#include <memory>
#include <thread>

#include "common.hpp"
#include "harness/schemes.hpp"
#include "smr/core/slab_alloc.hpp"
#include "svc/shard_router.hpp"

namespace perfbench {

inline constexpr unsigned kCsShards = 4;
inline constexpr unsigned kCsTenants = 3;
inline constexpr std::uint64_t kCsKeys = 100000;
inline constexpr std::uint64_t kCsPrefill = 50000;
inline constexpr std::size_t kCsBucketsPerShard = 4096;
inline constexpr double kCsZipfTheta = 0.99;
inline constexpr double kCsRateOps = 3e6;  // total offered load, ops/s
inline constexpr unsigned kCsGetPct = 90;
inline constexpr unsigned kCsPutPct = 5;  // the rest deletes
/// Mean distance between traced requests (traced phase only).
inline constexpr std::uint64_t kCsTraceEvery = 64;
struct cs_counts {
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::uint64_t overdue = 0;  // due before the stop, started after it
  std::uint64_t put_try = 0;
  std::uint64_t put_ok = 0;
  std::uint64_t del_try = 0;
  std::uint64_t del_ok = 0;
  double busy_op = 0;   // ticks from actual start to completion
  std::uint64_t busy_ops = 0;
  double busy_gen = 0;  // ticks between a completion and the next draw's end
  std::uint64_t gaps = 0;
  log_linear_hist svc;   // completion - actual start, ticks
  log_linear_hist lat;   // completion - intended start, ticks
  log_linear_hist late;  // actual start - intended, ticks
};

struct alignas(64) cs_tenant_state {
  beat progress;
  cs_counts ph[kPhases];
  span_buffer spans;
};

/// Phase boundaries in ticks: warm-up [warm, t0), timed [t0, t1), traced
/// [t1, t2); the schedule stops at t2.
struct cs_bounds {
  std::uint64_t warm, t0, t1, t2;
  int phase_of(std::uint64_t t) const {
    return t < t0 ? kWarm : t < t1 ? kTimed : kTraced;
  }
};

template <class D>
using cs_router = hyaline::svc::shard_router<D>;

template <class D>
std::unique_ptr<cs_router<D>> cs_setup(std::uint64_t seed) {
  auto router = std::make_unique<cs_router<D>>(
      kCsShards,
      [] {
        return hyaline::harness::scheme_traits<D>::make(
            hyaline::harness::scheme_params{});
      },
      kCsBucketsPerShard);
  hyaline::xoshiro256 rng(seed_for(seed, 0xf111));
  std::uint64_t live = 0;
  while (live < kCsPrefill) {
    if (router->put(rng.below(kCsKeys), 1)) ++live;
  }
  router->thread_quiesce();
  return router;
}

template <class D>
std::uint64_t cs_unreclaimed(cs_router<D>& router) {
  std::uint64_t u = 0;
  for (unsigned s = 0; s < router.shards(); ++s) {
    u += router.domain(s).counters().unreclaimed();
  }
  return u;
}

template <class D>
hyaline::smr::stats_snapshot cs_snapshot(cs_router<D>& router) {
  hyaline::smr::stats_snapshot all;
  for (unsigned s = 0; s < router.shards(); ++s) {
    all.accumulate(router.domain(s).counters().snapshot());
  }
  return all;
}

template <class D>
void cs_tenant(cs_router<D>& router, const hyaline::zipf_generator& zipf,
               std::uint64_t seed, unsigned tid, cs_bounds b,
               double mean_gap_ticks, std::uint64_t outlier_ticks,
               const std::vector<int>& cpus,
               cs_tenant_state& st) {
  pin_to(cpus, tid + 1);
  hyaline::xoshiro256 keys(seed_for(seed, tid + 1));
  hyaline::xoshiro256 arrivals(seed_for(seed, tid + 101));
  sampler trace_pick(seed_for(seed, tid + 201), kCsTraceEvery);
  auto gap = [&] {
    const double u = static_cast<double>(arrivals.next() >> 11) * 0x1.0p-53;
    return -mean_gap_ticks * std::log(1.0 - u);
  };
  double next = static_cast<double>(b.warm);
  std::uint64_t prev_done = 0;
  int prev_phase = -1;
  std::uint32_t open_loop_span = kNoParent;
  std::uint64_t req = std::uint64_t{tid} << 48;
  for (;;) {
    next += gap();
    const auto intended = static_cast<std::uint64_t>(next);
    if (intended >= b.t2) break;
    const int p = b.phase_of(intended);
    cs_counts& c = st.ph[p];
    ++c.scheduled;
    const std::uint64_t key = zipf(keys);
    const std::uint64_t dice = keys.below(100);
    std::uint64_t t = now();
    if (open_loop_span != kNoParent) {
      st.spans[open_loop_span].end = t;
      open_loop_span = kNoParent;
    }
    if (p == prev_phase && t - prev_done <= outlier_ticks) {
      c.busy_gen += static_cast<double>(t - prev_done);
      ++c.gaps;
    }
    while (t < intended) {
      __builtin_ia32_pause();
      t = now();
    }
    // An op due before the stop still runs when the tenant only gets to
    // it after the stop, so every scheduled op completes and is checked;
    // it counts as overdue instead.
    c.overdue += t >= b.t2;
    const std::uint64_t t_start = t;
    span_kind k;
    if (dice < kCsGetPct) {
      std::uint64_t out = 0;
      router.get(key, out);
      k = span_kind::svc_get;
    } else if (dice < kCsGetPct + kCsPutPct) {
      ++c.put_try;
      c.put_ok += router.put(key, key);
      k = span_kind::svc_put;
    } else {
      ++c.del_try;
      c.del_ok += router.del(key);
      k = span_kind::svc_del;
    }
    const std::uint64_t t_done = now();
    st.progress.bump();
    ++c.completed;
    c.lat.record(t_done - intended);
    c.svc.record(t_done - t_start);
    c.late.record(t_start - intended);
    if (t_done - t_start <= outlier_ticks) {
      c.busy_op += static_cast<double>(t_done - t_start);
      ++c.busy_ops;
    }
    if (p == kTraced && trace_pick.hit()) {
      const auto root = static_cast<std::uint32_t>(st.spans.size());
      ++req;
      st.spans.push_back({intended, t_done, req, kNoParent,
                          span_kind::request, 0});
      st.spans.push_back(
          {intended, t_start, req, root, span_kind::svc_wait, 0});
      st.spans.push_back({t_start, t_done, req, root, k, 1});
      // The generator span opens after the records are written, so it
      // holds what an untraced gap holds: bookkeeping and the next draw.
      open_loop_span = static_cast<std::uint32_t>(st.spans.size());
      st.spans.push_back({0, 0, req, kNoParent, span_kind::bench_loop, 1});
      st.spans.back().start = now();
    }
    prev_done = t_done;
    prev_phase = p;
  }
  if (open_loop_span != kNoParent) st.spans.pop_back();  // never closed
  router.thread_quiesce();
}

/// One measured phase of the main thread: sample memory at 1 kHz, stall a
/// reader on shard 0 through the middle third, then time how long until
/// unreclaimed is back under twice its pre-stall mean. Returns that time
/// in ms (the rest of the phase when it never gets back).
template <class D>
double cs_main_phase(cs_router<D>& router, std::uint64_t ta, std::uint64_t tb,
                     std::uint64_t stall_key, const tick_clock& clk,
                     const std::vector<const beat*>& beats,
                     mem_samples& mem) {
  auto read = [&] { return cs_unreclaimed(router); };
  const std::uint64_t len = tb - ta;
  mem_samples pre;
  sample_until(ta + len / 3, clk, beats, read, pre);
  mem.append(pre);
  std::uint64_t t_release = 0;
  {
    typename D::guard g(router.domain(0));
    router.touch(g, 0, stall_key);
    sample_until(ta + 2 * len / 3, clk, beats, read, mem);
    t_release = now();
  }
  router.thread_quiesce();
  const double limit = 2 * std::max(1.0, pre.mean());
  std::uint64_t next_sample = t_release + clk.ticks(kSampleNs);
  std::uint64_t t = now();
  double recovery_ms = -1;
  while (t < tb) {
    const std::uint64_t u = read();
    if (t >= next_sample) {
      take_sample(beats, clk, read, mem);
      next_sample += clk.ticks(kSampleNs);
    }
    if (static_cast<double>(u) < limit) {
      recovery_ms = clk.ns(static_cast<double>(t - t_release)) * 1e-6;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    t = now();
  }
  if (recovery_ms < 0) {  // not recovered within the phase: censored
    recovery_ms = clk.ns(static_cast<double>(tb - t_release)) * 1e-6;
  }
  if (now() < tb) sample_until(tb, clk, beats, read, mem);
  return recovery_ms;
}

template <class D>
run_result run_cache(const options& o, const tick_clock& clk) {
  run_result r;
  std::unique_ptr<cs_router<D>> router;
  for (unsigned s = 0; s < kSetups; ++s) {
    if (router != nullptr) {
      router->shutdown();
      router.reset();
    }
    const std::uint64_t a = now();
    router = cs_setup<D>(o.seed);
    r.setup_s.push_back(clk.ns(static_cast<double>(now() - a)) * 1e-9);
  }
  const hyaline::zipf_generator zipf(kCsKeys, kCsZipfTheta);
  hyaline::xoshiro256 pick(seed_for(o.seed, 0x57a11));
  std::uint64_t stall_key = pick.below(kCsKeys);
  while (router->shard_of(stall_key) != 0) stall_key = pick.below(kCsKeys);

  const double phase_ns = o.seconds * 1e9;
  const double warm_ns = std::clamp(0.1 * phase_ns, 50e6, 500e6);
  cs_bounds b;
  b.warm = now() + clk.ticks(20e6);
  b.t0 = b.warm + clk.ticks(warm_ns);
  b.t1 = b.t0 + clk.ticks(phase_ns);
  b.t2 = o.trace ? b.t1 + clk.ticks(phase_ns) : b.t1;
  const double mean_gap_ticks = kCsTenants / kCsRateOps * 1e9 *
                                clk.ticks_per_ns;

  std::vector<cs_tenant_state> st(kCsTenants);
  if (o.trace) {
    for (auto& w : st) w.spans.reserve(1 << 16);
  }
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kCsTenants; ++t) {
    ts.emplace_back(cs_tenant<D>, std::ref(*router), std::cref(zipf), o.seed,
                    t, b, mean_gap_ticks, clk.ticks(kOutlierNs),
                    std::cref(o.cpus), std::ref(st[t]));
  }
  std::vector<const beat*> beats;
  for (const cs_tenant_state& w : st) beats.push_back(&w.progress);
  wait_until(b.t0, clk);
  mem_samples timed_mem, traced_mem;
  double traced_recovery = 0;
  cs_main_phase(*router, b.t0, b.t1, stall_key, clk, beats, timed_mem);
  const auto s1 = cs_snapshot(*router);
  const auto r1 = router->snapshot();
  const auto slab1 = hyaline::smr::core::slab::stats();
  auto s2 = s1;
  auto r2 = r1;
  auto slab2 = slab1;
  if (o.trace) {
    hyaline::obs::set_lag_tracking(true);
    traced_recovery = cs_main_phase(*router, b.t1, b.t2, stall_key, clk,
                                    beats, traced_mem);
    s2 = cs_snapshot(*router);
    r2 = router->snapshot();
    slab2 = hyaline::smr::core::slab::stats();
  }
  for (auto& t : ts) t.join();
  hyaline::obs::set_lag_tracking(false);

  // --- correctness (quiescent) ------------------------------------------
  ledger lg;
  lg.prefill = kCsPrefill;
  lg.open_loop = true;
  cs_counts timed, traced;
  auto add = [](cs_counts& to, const cs_counts& c) {
    to.scheduled += c.scheduled;
    to.completed += c.completed;
    to.overdue += c.overdue;
    to.put_try += c.put_try;
    to.put_ok += c.put_ok;
    to.del_try += c.del_try;
    to.del_ok += c.del_ok;
    to.busy_op += c.busy_op;
    to.busy_ops += c.busy_ops;
    to.busy_gen += c.busy_gen;
    to.gaps += c.gaps;
    to.lat.merge(c.lat);
    to.svc.merge(c.svc);
    to.late.merge(c.late);
  };
  for (const cs_tenant_state& w : st) {
    for (const cs_counts& c : w.ph) {
      lg.inserts_ok += c.put_ok;
      lg.removes_ok += c.del_ok;
      lg.scheduled += c.scheduled;
      lg.completed += c.completed;
    }
    add(timed, w.ph[kTimed]);
    add(traced, w.ph[kTraced]);
  }
  for (std::uint64_t k = 0; k < kCsKeys; ++k) {
    std::uint64_t out = 0;
    lg.observed += router->get(k, out);
  }
  router->thread_quiesce();
  router->shutdown();
  for (const auto& s : router->snapshot()) {
    lg.retired += s.retired;
    lg.freed += s.freed;
  }
  r.violations = violations(lg);

  const std::uint64_t due = timed.scheduled + traced.scheduled;
  r.attempted = due;
  r.failed = r.violations.empty() ? 0 : due;
  r.overdue = r.violations.empty() ? timed.overdue + traced.overdue : 0;

  // --- end-to-end (timed phase) -----------------------------------------
  const double timed_ns = clk.ns(static_cast<double>(b.t1 - b.t0));
  r.e2e["throughput_mops"] =
      (timed.completed - timed.overdue) / timed_ns * 1e3;
  // Latency from the actual start: the router call as the tenant sees it
  // once issued. Latency from the intended start adds the wait for the
  // tenant's core, which on a shared VM is set by host interruptions more
  // than by the program (README, "Open-loop latency"); it is reported
  // beside, and the wait itself per layer as svc.start_late_*.
  r.e2e["lat_p50_ns"] = clk.ns(timed.svc.percentile(0.50));
  r.e2e["lat_p99_ns"] = clk.ns(timed.svc.percentile(0.99));
  r.info["lat_from_intended_p50_ns"] = clk.ns(timed.lat.percentile(0.50));
  r.info["lat_from_intended_p99_ns"] = clk.ns(timed.lat.percentile(0.99));
  r.e2e["unreclaimed_mean"] = timed_mem.filtered_mean();
  r.info["unreclaimed_plain_mean"] = timed_mem.mean();
  r.info["mem_skipped"] = static_cast<double>(timed_mem.skipped);
  r.info["lat_samples"] = static_cast<double>(timed.svc.count());
  r.info["mem_samples"] = static_cast<double>(timed_mem.n());
  if (!o.trace) return r;

  // --- per-layer (traced phase) -----------------------------------------
  std::vector<span_buffer> bufs;
  for (cs_tenant_state& w : st) bufs.push_back(std::move(w.spans));
  const span_summary sum = summarize(
      bufs, clk.read_ticks, static_cast<double>(clk.ticks(kOutlierNs)));
  const auto& get = sum.of(span_kind::svc_get);
  const auto& put = sum.of(span_kind::svc_put);
  const auto& del = sum.of(span_kind::svc_del);
  const auto& loop = sum.of(span_kind::bench_loop);
  const double kops = traced.completed / 1e3;
  const auto d = delta(s1, s2);
  // Busy thread time per op (the spin to each intended start excluded),
  // with the same per-interval read cost taken off as on the spans.
  auto busy_ns_op = [&](const cs_counts& c) {
    return clk.ns((c.busy_op - clk.read_ticks * c.busy_ops) /
                      std::max<std::uint64_t>(1, c.busy_ops) +
                  (c.busy_gen - clk.read_ticks * c.gaps) /
                      std::max<std::uint64_t>(1, c.gaps));
  };
  const double untraced_ns_op = busy_ns_op(timed);
  const double traced_ns_op = busy_ns_op(traced);
  const std::uint64_t svc_n = get.n + put.n + del.n;
  const double svc_ns = clk.ns((get.sum + put.sum + del.sum) /
                               std::max<std::uint64_t>(1, svc_n));
  const double span_ns_op = svc_ns + clk.ns(loop.mean());

  std::vector<hyaline::svc::shard_snapshot> shard_delta(r2.size());
  for (std::size_t s = 0; s < r2.size(); ++s) {
    shard_delta[s].gets = r2[s].gets - r1[s].gets;
    shard_delta[s].puts = r2[s].puts - r1[s].puts;
    shard_delta[s].dels = r2[s].dels - r1[s].dels;
    shard_delta[s].scans = r2[s].scans - r1[s].scans;
  }

  auto& L = r.layer;
  for (const char* k : {"smr.enter_ns", "smr.leave_ns", "smr.leave_p99_ns",
                        "ds.get_ns", "ds.insert_ns", "ds.remove_ns",
                        "ds.remove_p99_ns"}) {
    L[k] = 0;  // guards and map calls sit inside the router calls here
  }
  L["smr.retired_per_kop"] = d.retired / kops;
  L["smr.scans_per_kop"] = d.scans / kops;
  L["smr.finalizes_per_kop"] = d.finalizes / kops;
  L["smr.era_advances_per_kop"] = d.era_advances / kops;
  L["smr.freed_per_pass"] =
      d.scans + d.finalizes == 0
          ? 0
          : static_cast<double>(d.freed) / (d.scans + d.finalizes);
  L["smr.unreclaimed_max"] = static_cast<double>(traced_mem.max());
  L["smr.recovery_ms"] = traced_recovery;
  L["smr.lag_p99_ns"] = lag_p99_ns(d);
  L["ds.write_ok_ratio"] =
      traced.put_try + traced.del_try == 0
          ? 0
          : static_cast<double>(traced.put_ok + traced.del_ok) /
                (traced.put_try + traced.del_try);
  L["core.slab_chunks"] =
      static_cast<double>(hyaline::smr::core::slab::stats().chunks);
  L["core.remote_flushes_per_kop"] =
      (slab2.remote_flushes - slab1.remote_flushes) / kops;
  L["svc.get_ns"] = clk.ns(get.mean());
  L["svc.write_ns"] =
      clk.ns((put.sum + del.sum) / std::max<std::uint64_t>(1, put.n + del.n));
  L["svc.start_late_p50_ns"] = clk.ns(traced.late.percentile(0.50));
  L["svc.start_late_p99_ns"] = clk.ns(traced.late.percentile(0.99));
  L["svc.shard_imbalance"] = hyaline::svc::aggregate(shard_delta).imbalance;
  L["bench.loop_ns"] = clk.ns(loop.mean());
  L["bench.reconcile_err"] =
      std::abs(span_ns_op - untraced_ns_op) / untraced_ns_op;
  r.info["untraced_ns_per_op"] = untraced_ns_op;
  r.info["untraced_thread_ns_per_op"] = untraced_ns_op;
  r.info["traced_thread_ns_per_op"] = traced_ns_op;
  r.info["span_ns_per_op"] = span_ns_op;
  r.info["traced_ops"] = static_cast<double>(svc_n);
  r.info["spans_dropped"] = static_cast<double>(sum.dropped);
  r.spans = std::move(bufs);
  r.spans_t0 = b.t1;
  return r;
}

}  // namespace perfbench
