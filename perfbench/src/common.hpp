// Shared pieces of the benchmark binary: options, the tick clock, phase
// bookkeeping, the memory sampler and the per scheme-run result record.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "hist.hpp"
#include "ledger.hpp"
#include "obs/trace.hpp"
#include "smr/stats.hpp"
#include "spans.hpp"

namespace perfbench {

struct options {
  std::string workload;
  std::string scheme;
  std::uint64_t seed = 1;
  double seconds = 4;  ///< measured time of this scheme-run
  bool trace = false;  ///< add a traced phase after the untraced one
  std::string spans_out;  ///< traced runs: CSV file the spans go to
  std::vector<int> cpus;  ///< CPUs threads are pinned to (see pin_to)
};

/// The CPUs this process may run on, lowest first.
inline std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

/// Pin the calling thread to cpus[slot % size]: the main thread takes slot
/// 0 and worker t slot t + 1, so every run places its threads the same way
/// instead of wherever the scheduler first puts them.
inline void pin_to(const std::vector<int>& cpus, unsigned slot) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Phases of a scheme-run. Warm-up is untimed; the timed phase gives the
/// end-to-end metrics; the traced phase (trace runs only) gives the
/// per-layer metrics and is compared against the timed one.
enum phase : int { kWarm = 0, kTimed = 1, kTraced = 2, kStop = 3 };
inline constexpr int kPhases = 3;

/// Set-ups per scheme-run; setup_s is taken over their median.
inline constexpr unsigned kSetups = 5;

inline std::uint64_t now() { return hyaline::obs::now_ticks(); }

/// Calibrated conversion between ticks and nanoseconds.
struct tick_clock {
  double ticks_per_ns = 1;
  double read_ticks = 0;  ///< cost of one now() read

  double ns(double ticks) const { return ticks / ticks_per_ns; }
  std::uint64_t ticks(double ns) const {
    return static_cast<std::uint64_t>(ns * ticks_per_ns);
  }
};

inline tick_clock calibrate() {
  tick_clock c;
  c.ticks_per_ns = hyaline::obs::clock().ticks_per_ns;
  c.read_ticks = calibrate_read_ticks();
  return c;
}

/// Sleep until the tick counter reaches `target`, spinning only for the
/// last few microseconds. The main thread waits with this, so it leaves
/// its core to the workers while it is not sampling.
inline void wait_until(std::uint64_t target, const tick_clock& clk) {
  for (;;) {
    const std::uint64_t t = now();
    if (t >= target) return;
    const double left_ns = clk.ns(static_cast<double>(target - t));
    if (left_ns > 20e3) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          static_cast<std::int64_t>(std::min(left_ns - 10e3, 1e6))));
    } else {
      __builtin_ia32_pause();
    }
  }
}

inline std::uint64_t seed_for(std::uint64_t seed, std::uint64_t stream) {
  hyaline::splitmix64 sm(seed * 0x9e3779b97f4a7c15ULL + stream);
  return sm.next();
}

/// Picks ops to sample at random distances (uniform in [1, 2 * mean - 1])
/// rather than at a fixed stride, which would alias with the schemes' own
/// per-thread periods (burst entry renews every 64 guards).
class sampler {
 public:
  sampler(std::uint64_t seed, std::uint64_t mean)
      : rng_(seed), mean_(mean), left_(draw()) {}

  bool hit() {
    if (--left_ != 0) return false;
    left_ = draw();
    return true;
  }

 private:
  std::uint64_t draw() { return 1 + rng_.below(2 * mean_ - 1); }

  hyaline::xoshiro256 rng_;
  std::uint64_t mean_;
  std::uint64_t left_;
};

/// A worker's progress count, alone on its cache line: the worker bumps it
/// once per op, and the memory sampler reads it to tell a running worker
/// from one the host has descheduled.
struct alignas(64) beat {
  std::atomic<std::uint64_t> n{0};

  void bump() {
    n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  std::uint64_t read() const { return n.load(std::memory_order_relaxed); }
};

/// How long the sampler waits to see every worker make progress: about a
/// hundred kv ops, or twenty open-loop arrivals of one tenant.
inline constexpr double kRunCheckNs = 20e3;
inline constexpr std::size_t kMaxBeats = 8;

/// True once every beat has moved; false when one has not within
/// kRunCheckNs, that is when the host has that worker descheduled. The
/// beats are read once more after the deadline, so a sampler that was
/// itself descheduled meanwhile does not blame the workers.
inline bool all_running(const std::vector<const beat*>& beats,
                        const tick_clock& clk) {
  std::uint64_t seen[kMaxBeats];
  bool moved[kMaxBeats] = {};
  const std::size_t n = std::min(beats.size(), kMaxBeats);
  for (std::size_t i = 0; i < n; ++i) seen[i] = beats[i]->read();
  const std::uint64_t deadline = now() + clk.ticks(kRunCheckNs);
  std::size_t left = n;
  for (;;) {
    const bool late = now() > deadline;
    for (std::size_t i = 0; i < n; ++i) {
      if (!moved[i] && beats[i]->read() != seen[i]) {
        moved[i] = true;
        --left;
      }
    }
    if (left == 0) return true;
    if (late) return false;
    for (int k = 0; k < 16; ++k) __builtin_ia32_pause();
  }
}

/// Retired-but-unreclaimed samples the main thread takes at a fixed
/// cadence, off the worker path. A tick at which a worker is descheduled
/// by the host is skipped: with a worker stopped inside a guard,
/// reclamation waits for it, and what piles up meanwhile measures the
/// host's scheduler, not the scheme (README, "Unreclaimed").
struct mem_samples {
  std::vector<std::uint64_t> v;
  std::uint64_t skipped = 0;  ///< ticks with a worker descheduled

  void add(std::uint64_t x) { v.push_back(x); }
  void append(const mem_samples& o) {
    v.insert(v.end(), o.v.begin(), o.v.end());
    skipped += o.skipped;
  }
  std::size_t n() const { return v.size(); }
  std::uint64_t max() const {
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
  }
  double mean() const {
    double sum = 0;
    for (std::uint64_t x : v) sum += static_cast<double>(x);
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  }
  /// Mean of the samples after a running median over 101 samples (about
  /// 100 ms). Skipping descheduled ticks misses a worker that has just
  /// resumed and not yet caught up; the median drops what lasts less than
  /// half a window, and keeps ramps and steps, such as the growth under a
  /// stalled reader and its release.
  double filtered_mean() const {
    constexpr std::size_t kHalf = 50;
    if (v.empty()) return 0;
    double sum = 0;
    std::uint64_t win[2 * kHalf + 1];
    for (std::size_t i = 0; i < v.size(); ++i) {
      const std::size_t lo = i < kHalf ? 0 : i - kHalf;
      const std::size_t hi = std::min(v.size(), i + kHalf + 1);
      std::copy(v.begin() + lo, v.begin() + hi, win);
      const std::size_t n = hi - lo;
      std::nth_element(win, win + n / 2, win + n);
      sum += static_cast<double>(win[n / 2]);
    }
    return sum / static_cast<double>(v.size());
  }
};

inline constexpr double kSampleNs = 1e6;  // 1 kHz memory sampling

/// One memory sample: `read()` once every worker has been seen running.
template <class Read>
void take_sample(const std::vector<const beat*>& beats, const tick_clock& clk,
                 Read&& read, mem_samples& out) {
  if (all_running(beats, clk)) {
    out.add(read());
  } else {
    ++out.skipped;
  }
}

template <class Read>
void sample_until(std::uint64_t end, const tick_clock& clk,
                  const std::vector<const beat*>& beats, Read&& read,
                  mem_samples& out) {
  std::uint64_t next = now();
  const std::uint64_t step = clk.ticks(kSampleNs);
  for (;;) {
    next += step;
    if (next >= end) break;
    wait_until(next, clk);
    take_sample(beats, clk, read, out);
  }
  wait_until(end, clk);
}

/// Counter delta between two snapshots of smr::stats.
inline hyaline::smr::stats_snapshot delta(const hyaline::smr::stats_snapshot& a,
                                          const hyaline::smr::stats_snapshot& b) {
  hyaline::smr::stats_snapshot d;
  d.allocated = b.allocated - a.allocated;
  d.retired = b.retired - a.retired;
  d.freed = b.freed - a.freed;
  d.scans = b.scans - a.scans;
  d.steals = b.steals - a.steals;
  d.rearms = b.rearms - a.rearms;
  d.finalizes = b.finalizes - a.finalizes;
  d.era_advances = b.era_advances - a.era_advances;
  d.tid_acquires = b.tid_acquires - a.tid_acquires;
  for (unsigned i = 0; i < hyaline::smr::lag_counters::kBuckets; ++i) {
    d.lag_bucket[i] = b.lag_bucket[i] - a.lag_bucket[i];
    d.lag_count += d.lag_bucket[i];
  }
  d.lag_max_ns = b.lag_max_ns;
  return d;
}

/// p99 of the library's log2 lag buckets (bucket b holds [2^(b-1),
/// 2^b - 1] ns), read at the bucket's upper edge: the resolution the
/// library records lag at.
inline double lag_p99_ns(const hyaline::smr::stats_snapshot& d) {
  if (d.lag_count == 0) return 0;
  const double want = 0.99 * static_cast<double>(d.lag_count);
  double seen = 0;
  for (unsigned b = 0; b < hyaline::smr::lag_counters::kBuckets; ++b) {
    seen += static_cast<double>(d.lag_bucket[b]);
    if (seen >= want) {
      return b == 0 ? 0 : std::ldexp(1.0, static_cast<int>(b)) - 1;
    }
  }
  return static_cast<double>(d.lag_max_ns);
}

/// Everything one scheme-run reports; run.py names the metrics per scheme.
struct run_result {
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;  ///< ops due in the measured phases
  std::uint64_t failed = 0;     ///< ops of a scheme-run that failed a check
  std::uint64_t overdue = 0;    ///< open loop: due before the stop, run after
  std::vector<std::string> violations;
  std::map<std::string, double> e2e;      ///< tracing-off metrics
  std::map<std::string, double> layer;    ///< traced-phase metrics
  std::map<std::string, double> info;     ///< sample counts and such
  std::vector<span_buffer> spans;  ///< traced phase, one buffer per worker
  std::uint64_t spans_t0 = 0;      ///< traced phase start, the CSV's origin
};

}  // namespace perfbench
