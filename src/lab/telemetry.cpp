#include "lab/telemetry.hpp"

#include <algorithm>
#include <chrono>

#include "obs/trace.hpp"

namespace hyaline::lab {

double latency_histogram::percentile(double q) const {
  if (total_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank of the target observation (1-based, ceil), then walk buckets.
  const std::uint64_t rank =
      std::uint64_t(q * static_cast<double>(total_ - 1)) + 1;
  std::uint64_t cum = 0;
  for (unsigned b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (cum + counts_[b] >= rank) {
      const double within =
          static_cast<double>(rank - cum - 1) /
          static_cast<double>(counts_[b]);
      const double lo = static_cast<double>(bucket_lo(b));
      const double hi = static_cast<double>(bucket_hi(b));
      const double v = lo + within * (hi - lo);
      // The top occupied bucket spans up to 2x the largest observation;
      // interpolating past max_ would report a p99 above the max column.
      const double cap = static_cast<double>(max_);
      return max_ != 0 && v > cap ? cap : v;
    }
    cum += counts_[b];
  }
  return static_cast<double>(max_);
}

lag_percentiles lag_percentiles_of(const smr::stats_snapshot& s) {
  const latency_histogram h =
      latency_histogram::from_counts(s.lag_bucket, s.lag_max_ns);
  return {h.percentile(0.50), h.percentile(0.99), s.lag_max_ns};
}

telemetry_collector::telemetry_collector(unsigned slots, unsigned sample_ms,
                                         const smr::stats* stats)
    : telemetry_collector(slots, sample_ms,
                          std::vector<const smr::stats*>{stats}) {}

telemetry_collector::telemetry_collector(unsigned slots, unsigned sample_ms,
                                         std::vector<const smr::stats*> stats)
    : slots_(slots == 0 ? 1 : slots),
      stats_(std::move(stats)),
      sample_ms_(sample_ms == 0 ? 10 : sample_ms) {}

telemetry_collector::~telemetry_collector() { stop(); }

void telemetry_collector::start() {
  sampler_ = std::thread([this] { run_sampler(); });
}

void telemetry_collector::stop() {
  quit_.store(true, std::memory_order_relaxed);
  if (sampler_.joinable()) sampler_.join();
}

void telemetry_collector::take_sample(double t_ms, double interval_ms) {
  std::uint64_t ops = 0;
  for (const auto& s : slots_) {
    ops += s->load(std::memory_order_relaxed);
  }
  sample_point p;
  p.t_ms = t_ms;
  p.ops = ops;
  p.mops = interval_ms > 0
               ? static_cast<double>(ops - prev_ops_) / (interval_ms * 1e3)
               : 0;
  for (const smr::stats* s : stats_) {
    p.retired += s->retired.load(std::memory_order_relaxed);
    p.freed += s->freed.load(std::memory_order_relaxed);
  }
  // Summed from the snapshot above, not per-domain unreclaimed(): the
  // per-domain clamp-at-zero would hide one shard's deficit against
  // another's backlog.
  p.unreclaimed = p.retired > p.freed ? p.retired - p.freed : 0;
  p.active_threads = active_.load(std::memory_order_relaxed);
  points_.push_back(p);
  prev_ops_ = ops;
  prev_t_ms_ = t_ms;
}

void telemetry_collector::run_sampler() {
  obs::name_thread("sampler");
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration_cast<
               std::chrono::duration<double, std::milli>>(clock::now() - t0)
        .count();
  };
  // Fixed cadence relative to t0, so a slow sample does not drift the
  // whole series (the recovery check compares absolute windows).
  std::uint64_t tick = 1;
  while (!quit_.load(std::memory_order_relaxed)) {
    const double due = static_cast<double>(tick * sample_ms_);
    double now = elapsed_ms();
    while (now < due && !quit_.load(std::memory_order_relaxed)) {
      const double left = due - now;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          left < 1.0 ? left : 1.0));
      now = elapsed_ms();
    }
    if (quit_.load(std::memory_order_relaxed)) break;
    take_sample(now, now - prev_t_ms_);
    tick = static_cast<std::uint64_t>(now / sample_ms_) + 1;
  }
  // Closing sample so the series always covers the full run — unless a
  // tick fired just before quit: two samples microseconds apart would
  // collide at the JSON's fixed-precision t_ms and carry a meaningless
  // interval throughput.
  const double now = elapsed_ms();
  if (points_.empty() || now - prev_t_ms_ >= sample_ms_ * 0.5) {
    take_sample(now, now - prev_t_ms_);
  }
}

recovery_verdict check_recovery(const std::vector<sample_point>& points,
                                double fault_start_ms, double fault_end_ms,
                                double duration_ms) {
  recovery_verdict v;
  // Settle window: the second half of the fault-free tail, so transient
  // post-fault reclamation backlog is not misread as a leak.
  const double settle_from = fault_end_ms + (duration_ms - fault_end_ms) / 2;
  double base_peak = 0, post_sum = 0;
  std::uint64_t base_n = 0, post_n = 0;
  for (const sample_point& p : points) {
    if (p.t_ms < fault_start_ms) {
      const double u = static_cast<double>(p.unreclaimed);
      if (u > base_peak) base_peak = u;
      ++base_n;
    } else if (p.t_ms >= settle_from) {
      post_sum += static_cast<double>(p.unreclaimed);
      ++post_n;
    }
  }
  if (base_n == 0) {
    v.why_unchecked = "no samples before the first fault";
    return v;
  }
  if (post_n == 0) {
    v.why_unchecked = "no samples after the faults settled";
    return v;
  }
  v.checked = true;
  // Baseline = the pre-fault PEAK, not the mean: batching schemes
  // oscillate with an amplitude comparable to the mean (a batch flush
  // swings the counter by batch_min x slots), and the peak is the
  // quantity the paper's robustness bound actually caps. The settled
  // tail is averaged — a mean stuck above 2x the worst pre-fault sample
  // is a real failure to recover, not noise.
  v.baseline = base_peak;
  v.post = post_sum / static_cast<double>(post_n);
  // The floor absorbs batching slack when the pre-fault window was
  // nearly idle and the baseline is a handful of nodes.
  v.limit = std::max(v.baseline * 2, kRecoveryFloor);
  v.recovered = v.post <= v.limit;
  return v;
}

}  // namespace hyaline::lab
