// Robustness lab, part 2: time-series telemetry.
//
// The workload loops publish per-thread operation counts into a ring of
// padded sample slots (one relaxed fetch_add per op); a sampler thread
// aggregates them at a fixed cadence (default 10 ms) together with the
// domain's retire/free counters into sample_point records:
//
//   { t_ms, mops, ops, retired, freed, unreclaimed, active_threads }
//
// A single end-of-run scalar cannot distinguish a scheme that spikes to
// 10x steady-state memory mid-run and recovers from one that never
// spikes; the series can, and check_recovery() turns "returns to
// baseline after the last fault clears" into a pass/fail property.
//
// Per-op latency rides alongside in a log-bucketed histogram
// (latency_histogram): bucket b >= 1 covers [2^(b-1), 2^b - 1] ns, with
// linear interpolation inside a bucket for the p50/p90/p99 estimates and
// the exact maximum tracked separately.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/align.hpp"
#include "smr/stats.hpp"

namespace hyaline::lab {

struct sample_point {
  double t_ms = 0;               ///< since run start
  double mops = 0;               ///< interval throughput, Mops/s
  std::uint64_t ops = 0;         ///< cumulative operations
  std::uint64_t retired = 0;     ///< cumulative domain counters
  std::uint64_t freed = 0;
  std::uint64_t unreclaimed = 0;
  unsigned active_threads = 0;
};

/// Log-bucketed latency histogram. Not thread-safe: each worker records
/// into its own instance and merges into a shared one at thread exit.
class latency_histogram {
 public:
  /// bit_width(uint64) is at most 64, plus the dedicated zero bucket.
  static constexpr unsigned kBuckets = 65;

  /// Bucket 0 holds exactly {0}; bucket b >= 1 holds [2^(b-1), 2^b - 1].
  static constexpr unsigned bucket_of(std::uint64_t ns) {
    return static_cast<unsigned>(std::bit_width(ns));
  }

  /// Inclusive value range of a bucket.
  static constexpr std::uint64_t bucket_lo(unsigned b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  static constexpr std::uint64_t bucket_hi(unsigned b) {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
  }

  void record(std::uint64_t ns) {
    ++counts_[bucket_of(ns)];
    ++total_;
    if (ns > max_) max_ = ns;
  }

  void merge(const latency_histogram& o) {
    for (unsigned b = 0; b < kBuckets; ++b) counts_[b] += o.counts_[b];
    total_ += o.total_;
    if (o.max_ > max_) max_ = o.max_;
  }

  /// Rehydrate from externally-accumulated bucket counts that share this
  /// class's geometry — smr::lag_counters records retire->free lag into
  /// the same 65 log2 buckets precisely so its snapshots can be fed back
  /// through percentile() here instead of duplicating the quantile math.
  static latency_histogram from_counts(
      const std::uint64_t (&counts)[kBuckets], std::uint64_t max_ns) {
    latency_histogram h;
    for (unsigned b = 0; b < kBuckets; ++b) {
      h.counts_[b] = counts[b];
      h.total_ += counts[b];
    }
    h.max_ = max_ns;
    return h;
  }

  /// Quantile estimate in ns, q in [0, 1]; linear interpolation within
  /// the covering bucket. 0 when empty.
  double percentile(double q) const;

  std::uint64_t total() const { return total_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(unsigned b) const { return counts_[b]; }

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

/// Retire->free lag percentiles (ns) of a stats snapshot, its lag buckets
/// rehydrated through latency_histogram's quantile math. All zero unless
/// obs::lag_tracking() was on for the run.
struct lag_percentiles {
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t max_ns = 0;
};

lag_percentiles lag_percentiles_of(const smr::stats_snapshot& s);

/// Aggregates per-thread op counters and the domain's reclamation
/// counters into a time series. Worker side is wait-free (one relaxed
/// fetch_add per op on a thread-private cache line); the sampler thread
/// is the only writer of the series.
class telemetry_collector {
 public:
  /// `slots` = highest worker tid + 1; `stats` = the domain's counters
  /// (outlives the collector); `sample_ms` = cadence.
  telemetry_collector(unsigned slots, unsigned sample_ms,
                      const smr::stats* stats);

  /// Multi-domain variant: each sample sums retired/freed across every
  /// stats block (all must outlive the collector). The svc shard router
  /// owns one domain per shard; the service timeline is the aggregate.
  telemetry_collector(unsigned slots, unsigned sample_ms,
                      std::vector<const smr::stats*> stats);

  ~telemetry_collector();

  telemetry_collector(const telemetry_collector&) = delete;
  telemetry_collector& operator=(const telemetry_collector&) = delete;

  /// Launch the sampler; the series' t=0 is now.
  void start();

  /// Take a final sample and join the sampler. Idempotent.
  void stop();

  // --- worker side -------------------------------------------------------

  void thread_enter() { active_.fetch_add(1, std::memory_order_relaxed); }
  void thread_exit() { active_.fetch_sub(1, std::memory_order_relaxed); }

  void on_op(unsigned tid) {
    slots_[tid]->fetch_add(1, std::memory_order_relaxed);
  }

  /// Valid after stop().
  const std::vector<sample_point>& points() const { return points_; }
  std::vector<sample_point> take_points() { return std::move(points_); }

 private:
  void run_sampler();
  void take_sample(double t_ms, double interval_ms);

  std::vector<padded<std::atomic<std::uint64_t>>> slots_;
  std::vector<const smr::stats*> stats_;
  unsigned sample_ms_;
  std::atomic<unsigned> active_{0};
  std::atomic<bool> quit_{false};
  std::vector<sample_point> points_;
  std::uint64_t prev_ops_ = 0;
  double prev_t_ms_ = 0;
  std::thread sampler_;
};

/// Floor of the recovery check's memory limit, in nodes: below it the
/// unreclaimed count is batching slack (Hyaline batch minimums, HP scan
/// thresholds), not a robustness signal. The service SLO uses it too.
inline constexpr double kRecoveryFloor = 2048;

/// Verdict of the post-fault recovery check (fig_timeline's checked
/// property): after the last fault clears, a robust scheme's unreclaimed
/// count must return to within 2x its pre-fault baseline (or
/// kRecoveryFloor, whichever is larger).
struct recovery_verdict {
  bool checked = false;    ///< false = not enough samples to judge
  bool recovered = false;
  double baseline = 0;     ///< peak unreclaimed before the first fault
  double post = 0;         ///< mean unreclaimed over the settled tail
  double limit = 0;        ///< the bound `post` was held to
  const char* why_unchecked = "";
};

/// Judge recovery from a sampled series. Baseline = peak unreclaimed of
/// samples before `fault_start_ms` (the quantity the paper's robustness
/// bound caps; the mean of a batch-granular counter is too noisy at
/// short scales); the settled tail = mean over samples in the second
/// half of (fault_end_ms, duration_ms]. Unchecked (not failed) when
/// either window holds no samples.
recovery_verdict check_recovery(const std::vector<sample_point>& points,
                                double fault_start_ms, double fault_end_ms,
                                double duration_ms);

}  // namespace hyaline::lab
