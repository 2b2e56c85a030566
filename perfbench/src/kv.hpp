// kv-read and kv-churn: closed-loop workers on one ds::michael_hashmap.
//
// 3 workers each issue their next op when the last one returns; the main
// thread only samples memory. Keys are uniform over 4096, 2048 of them
// prefilled, in 16384 buckets, so the map stays cache resident and the
// SMR layer's share of an op is as large as it gets.
#pragma once

#include <memory>
#include <thread>

#include "common.hpp"
#include "ds/michael_hashmap.hpp"
#include "harness/schemes.hpp"
#include "harness/workload.hpp"
#include "smr/core/slab_alloc.hpp"

namespace perfbench {

struct kv_mix {
  unsigned contains_pct;
  unsigned insert_pct;  // the rest removes
};

inline constexpr kv_mix kKvRead{90, 5};
/// 60% writes, not 100%: with every op a write, about 1% of Epoch's ops
/// carry a reclaim pass, which puts its p99 on the edge between plain and
/// reclaiming ops, where it moves with the host (README, "kv-churn is 60%
/// writes"). Here that share is about 0.6%, and the retire rate is still
/// six times kv-read's.
inline constexpr kv_mix kKvChurn{40, 30};

inline constexpr unsigned kKvWorkers = 3;
inline constexpr std::uint64_t kKvKeys = 4096;
inline constexpr std::uint64_t kKvPrefill = 2048;
inline constexpr std::size_t kKvBuckets = 16384;
/// Mean distances between sampled ops (see sampler):
///   - latency samples have their guard + op timed;
///   - iteration samples have the whole loop iteration timed with no read
///     in between: the untraced per-op time the spans must add up to;
///   - traced ops (traced phase only) are wrapped in layer spans.
inline constexpr std::uint64_t kLatEvery = 64;
inline constexpr std::uint64_t kIterEvery = 64;
inline constexpr std::uint64_t kTraceEvery = 512;

struct kv_counts {
  std::uint64_t ops = 0;
  std::uint64_t ins_try = 0;
  std::uint64_t ins_ok = 0;
  std::uint64_t rem_try = 0;
  std::uint64_t rem_ok = 0;
  std::uint64_t iter_n = 0;    // whole-iteration samples
  std::uint64_t iter_ticks = 0;
};

struct alignas(64) kv_worker_state {
  beat progress;
  kv_counts ph[kPhases];
  log_linear_hist lat;  // timed phase, guard + op, ticks
  span_buffer spans;
};

template <class D>
struct kv_instance {
  std::unique_ptr<D> dom;
  std::unique_ptr<hyaline::ds::michael_hashmap<D>> map;
};

/// Set-up: domain and map construction plus prefill, by the main thread.
template <class D>
kv_instance<D> kv_setup(std::uint64_t seed) {
  kv_instance<D> in;
  in.dom = hyaline::harness::scheme_traits<D>::make(
      hyaline::harness::scheme_params{});
  in.map = std::make_unique<hyaline::ds::michael_hashmap<D>>(*in.dom,
                                                            kKvBuckets);
  hyaline::xoshiro256 rng(seed_for(seed, 0xf111));
  std::uint64_t live = 0;
  while (live < kKvPrefill) {
    typename D::guard g(*in.dom);
    if (in.map->insert(g, rng.below(kKvKeys), 1)) ++live;
  }
  // The main thread takes no guards until teardown: release its partial
  // Hyaline batch and lingering burst-entry reservation.
  hyaline::harness::detail::flush_thread(*in.dom);
  hyaline::harness::detail::quiesce_thread(*in.dom);
  return in;
}

enum class kv_op : std::uint8_t { contains, insert, remove };

template <class D>
bool kv_apply(hyaline::ds::michael_hashmap<D>& map, typename D::guard& g,
              kv_op op, std::uint64_t key) {
  switch (op) {
    case kv_op::contains: return map.contains(g, key);
    case kv_op::insert: return map.insert(g, key, key);
    case kv_op::remove: return map.remove(g, key);
  }
  return false;
}

inline void kv_count(kv_counts& c, kv_op op, bool ok) {
  ++c.ops;
  if (op == kv_op::insert) {
    ++c.ins_try;
    c.ins_ok += ok;
  } else if (op == kv_op::remove) {
    ++c.rem_try;
    c.rem_ok += ok;
  }
}

template <class D>
void kv_worker(D& dom, hyaline::ds::michael_hashmap<D>& map, kv_mix mix,
               std::uint64_t seed, unsigned tid, const std::atomic<int>& ph,
               std::uint64_t outlier_ticks, const std::vector<int>& cpus,
               kv_worker_state& st) {
  using guard_t = typename D::guard;
  pin_to(cpus, tid + 1);
  hyaline::xoshiro256 rng(seed_for(seed, tid + 1));
  sampler lat_pick(seed_for(seed, tid + 101), kLatEvery);
  sampler iter_pick(seed_for(seed, tid + 201), kIterEvery);
  sampler trace_pick(seed_for(seed, tid + 301), kTraceEvery);
  std::uint64_t req = std::uint64_t{tid} << 48;
  for (;;) {
    const int p = ph.load(std::memory_order_relaxed);
    if (p == kStop) break;
    kv_counts& c = st.ph[p];
    const bool traced = p == kTraced && trace_pick.hit();
    const bool iter = !traced && iter_pick.hit();
    const std::uint64_t t0 = traced || iter ? now() : 0;
    const std::uint64_t key = rng.below(kKvKeys);
    const std::uint64_t dice = rng.below(100);
    const kv_op op = dice < mix.contains_pct ? kv_op::contains
                     : dice < mix.contains_pct + mix.insert_pct
                         ? kv_op::insert
                         : kv_op::remove;
    // One code path for every op, so a traced op runs the same (hot)
    // instructions as the rest; only the timestamp reads are conditional.
    const bool lat = !traced && !iter && lat_pick.hit();
    std::uint64_t t1 = 0, t2 = 0, t3 = 0, t4 = 0;
    if (traced || lat) t1 = now();
    bool ok = false;
    {
      guard_t g(dom);
      if (traced) t2 = now();
      ok = kv_apply(map, g, op, key);
      if (traced) t3 = now();
    }
    if (traced || lat) t4 = now();
    st.progress.bump();
    kv_count(c, op, ok);
    if (lat && p == kTimed) st.lat.record(t4 - t1);
    if (iter) {
      const std::uint64_t d = now() - t0;
      if (d <= outlier_ticks) {
        c.iter_ticks += d;
        ++c.iter_n;
      }
    }
    if (traced) {
      const std::uint64_t t5 = now();
      const auto root = static_cast<std::uint32_t>(st.spans.size());
      const span_kind dk = op == kv_op::contains ? span_kind::ds_contains
                           : op == kv_op::insert ? span_kind::ds_insert
                                                 : span_kind::ds_remove;
      ++req;
      st.spans.push_back({t0, t5, req, kNoParent, span_kind::op, 5});
      st.spans.push_back({t1, t2, req, root, span_kind::smr_enter, 1});
      st.spans.push_back({t2, t3, req, root, dk, 1});
      st.spans.push_back({t3, t4, req, root, span_kind::smr_leave, 1});
    }
  }
  hyaline::harness::detail::flush_thread(dom);
  hyaline::harness::detail::quiesce_thread(dom);
}

template <class D>
run_result run_kv(const options& o, kv_mix mix, const tick_clock& clk) {
  run_result r;
  kv_instance<D> in;
  for (unsigned s = 0; s < kSetups; ++s) {
    if (in.dom != nullptr) {
      in.map.reset();
      in.dom->drain();
      in.dom.reset();
    }
    const std::uint64_t a = now();
    in = kv_setup<D>(o.seed);
    r.setup_s.push_back(clk.ns(static_cast<double>(now() - a)) * 1e-9);
  }
  D& dom = *in.dom;
  auto unreclaimed = [&] { return dom.counters().unreclaimed(); };

  const double phase_ns = o.seconds * 1e9;
  const double warm_ns = std::clamp(0.1 * phase_ns, 50e6, 500e6);
  std::atomic<int> ph{kWarm};
  std::vector<kv_worker_state> st(kKvWorkers);
  if (o.trace) {
    for (auto& w : st) w.spans.reserve(1 << 16);
  }
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kKvWorkers; ++t) {
    ts.emplace_back(kv_worker<D>, std::ref(dom), std::ref(*in.map), mix,
                    o.seed, t, std::cref(ph), clk.ticks(kOutlierNs),
                    std::cref(o.cpus), std::ref(st[t]));
  }
  std::vector<const beat*> beats;
  for (const kv_worker_state& w : st) beats.push_back(&w.progress);
  mem_samples warm_mem, timed_mem, traced_mem;
  sample_until(now() + clk.ticks(warm_ns), clk, beats, unreclaimed,
               warm_mem);

  const std::uint64_t t0 = now();
  ph.store(kTimed, std::memory_order_relaxed);
  sample_until(t0 + clk.ticks(phase_ns), clk, beats, unreclaimed, timed_mem);
  const std::uint64_t t1 = now();
  const auto s1 = dom.counters().snapshot();
  const auto slab1 = hyaline::smr::core::slab::stats();
  std::uint64_t t2 = t1;
  auto s2 = s1;
  auto slab2 = slab1;
  if (o.trace) {
    hyaline::obs::set_lag_tracking(true);
    ph.store(kTraced, std::memory_order_relaxed);
    sample_until(t1 + clk.ticks(phase_ns), clk, beats, unreclaimed,
                 traced_mem);
    t2 = now();
    s2 = dom.counters().snapshot();
    slab2 = hyaline::smr::core::slab::stats();
  }
  ph.store(kStop, std::memory_order_relaxed);
  for (auto& t : ts) t.join();
  hyaline::obs::set_lag_tracking(false);

  // --- correctness (quiescent) ------------------------------------------
  ledger lg;
  lg.prefill = kKvPrefill;
  kv_counts timed, traced;
  log_linear_hist lat;
  for (const kv_worker_state& w : st) {
    for (const kv_counts& c : w.ph) {
      lg.inserts_ok += c.ins_ok;
      lg.removes_ok += c.rem_ok;
    }
    timed.ops += w.ph[kTimed].ops;
    timed.iter_n += w.ph[kTimed].iter_n;
    timed.iter_ticks += w.ph[kTimed].iter_ticks;
    traced.ops += w.ph[kTraced].ops;
    traced.ins_try += w.ph[kTraced].ins_try;
    traced.ins_ok += w.ph[kTraced].ins_ok;
    traced.rem_try += w.ph[kTraced].rem_try;
    traced.rem_ok += w.ph[kTraced].rem_ok;
    lat.merge(w.lat);
  }
  lg.observed = in.map->unsafe_size();
  in.map.reset();
  dom.drain();
  lg.retired = dom.counters().retired.load(std::memory_order_relaxed);
  lg.freed = dom.counters().freed.load(std::memory_order_relaxed);
  r.violations = violations(lg);

  const std::uint64_t due = timed.ops + traced.ops;
  r.attempted = due;
  r.failed = r.violations.empty() ? 0 : due;

  // --- end-to-end (timed phase) -----------------------------------------
  const double timed_ns = clk.ns(static_cast<double>(t1 - t0));
  r.e2e["throughput_mops"] = timed.ops / timed_ns * 1e3;
  r.e2e["lat_p50_ns"] = clk.ns(lat.percentile(0.50));
  r.e2e["lat_p99_ns"] = clk.ns(lat.percentile(0.99));
  r.e2e["unreclaimed_mean"] = timed_mem.filtered_mean();
  r.info["unreclaimed_plain_mean"] = timed_mem.mean();
  r.info["mem_skipped"] = static_cast<double>(timed_mem.skipped);
  r.info["lat_samples"] = static_cast<double>(lat.count());
  r.info["mem_samples"] = static_cast<double>(timed_mem.n());
  if (!o.trace) return r;

  // --- per-layer (traced phase) -----------------------------------------
  std::vector<span_buffer> bufs;
  for (kv_worker_state& w : st) bufs.push_back(std::move(w.spans));
  const span_summary sum = summarize(
      bufs, clk.read_ticks, static_cast<double>(clk.ticks(kOutlierNs)));
  const auto& enter = sum.of(span_kind::smr_enter);
  const auto& leave = sum.of(span_kind::smr_leave);
  const auto& get = sum.of(span_kind::ds_contains);
  const auto& ins = sum.of(span_kind::ds_insert);
  const auto& rem = sum.of(span_kind::ds_remove);
  const auto& op = sum.of(span_kind::op);
  const double kops = traced.ops / 1e3;
  const auto d = delta(s1, s2);
  const double traced_ns = clk.ns(static_cast<double>(t2 - t1));
  // Untraced per-op time: whole iterations timed by one pair of reads
  // (less that pair's cost), the interval an op span covers. Thread time
  // over ops is smaller, as consecutive ops overlap in the core; both go
  // out, and the trace overhead compares thread time.
  const double untraced_ns_op =
      clk.ns(static_cast<double>(timed.iter_ticks) /
                 std::max<std::uint64_t>(1, timed.iter_n) -
             clk.read_ticks);
  const double untraced_thread_ns_op = kKvWorkers * timed_ns / timed.ops;
  const double traced_thread_ns_op = kKvWorkers * traced_ns / traced.ops;
  const double span_ns_op =
      clk.ns((enter.sum + get.sum + ins.sum + rem.sum + leave.sum + op.sum) /
             std::max<std::uint64_t>(1, op.n));

  auto& L = r.layer;
  L["smr.enter_ns"] = clk.ns(enter.mean());
  L["smr.leave_ns"] = clk.ns(leave.mean());
  L["smr.leave_p99_ns"] = clk.ns(leave.hist.percentile(0.99));
  L["smr.retired_per_kop"] = d.retired / kops;
  L["smr.scans_per_kop"] = d.scans / kops;
  L["smr.finalizes_per_kop"] = d.finalizes / kops;
  L["smr.era_advances_per_kop"] = d.era_advances / kops;
  L["smr.freed_per_pass"] =
      d.scans + d.finalizes == 0
          ? 0
          : static_cast<double>(d.freed) / (d.scans + d.finalizes);
  L["smr.unreclaimed_max"] = static_cast<double>(traced_mem.max());
  L["smr.recovery_ms"] = 0;  // no stall on this workload
  L["smr.lag_p99_ns"] = lag_p99_ns(d);
  L["ds.get_ns"] = clk.ns(get.mean());
  L["ds.insert_ns"] = clk.ns(ins.mean());
  L["ds.remove_ns"] = clk.ns(rem.mean());
  L["ds.remove_p99_ns"] = clk.ns(rem.hist.percentile(0.99));
  L["ds.write_ok_ratio"] =
      traced.ins_try + traced.rem_try == 0
          ? 0
          : static_cast<double>(traced.ins_ok + traced.rem_ok) /
                (traced.ins_try + traced.rem_try);
  L["core.slab_chunks"] =
      static_cast<double>(hyaline::smr::core::slab::stats().chunks);
  L["core.remote_flushes_per_kop"] =
      (slab2.remote_flushes - slab1.remote_flushes) / kops;
  for (const char* k : {"svc.get_ns", "svc.write_ns", "svc.start_late_p50_ns",
                        "svc.start_late_p99_ns", "svc.shard_imbalance"}) {
    L[k] = 0;  // no router on this workload
  }
  L["bench.loop_ns"] = clk.ns(op.mean());
  L["bench.reconcile_err"] =
      std::abs(span_ns_op - untraced_ns_op) / untraced_ns_op;
  r.info["untraced_ns_per_op"] = untraced_ns_op;
  r.info["untraced_thread_ns_per_op"] = untraced_thread_ns_op;
  r.info["traced_thread_ns_per_op"] = traced_thread_ns_op;
  r.info["span_ns_per_op"] = span_ns_op;
  r.info["traced_ops"] = static_cast<double>(op.n);
  r.info["spans_dropped"] = static_cast<double>(sum.dropped);
  r.spans = std::move(bufs);
  r.spans_t0 = t1;
  return r;
}

}  // namespace perfbench
