// Layer spans for the traced run, and the timestamp they are cut from.
//
// On each worker one op in every N is wrapped in a span whose children sit
// at layer boundaries (guard construction/destruction, the ds call, the
// router call). A span records its name, start, end, parent and request
// id into the worker's own buffer; the buffers are analysed and written
// out as CSV after the workers join. Timestamps are TSC ticks from
// obs::now_ticks(); a read costs a sizeable share of a short op, so every
// span stores how many read costs its interval holds and the analysis
// subtracts them using the cost calibrated by calibrate_read_ticks().
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "hist.hpp"
#include "obs/trace.hpp"

namespace perfbench {

enum class span_kind : std::uint8_t {
  op,           // closed-loop op: children smr.enter, ds.<kind>, smr.leave
  smr_enter,
  ds_contains,
  ds_insert,
  ds_remove,
  smr_leave,
  request,      // open-loop request: children svc.wait, svc.<kind>
  svc_wait,
  svc_get,
  svc_put,
  svc_del,
  bench_loop,   // open-loop generator work between two requests
  count_
};

inline const char* span_name(span_kind k) {
  static const char* const names[] = {
      "op",      "smr.enter", "ds.contains", "ds.insert", "ds.remove",
      "smr.leave", "request",  "svc.wait",    "svc.get",   "svc.put",
      "svc.del", "bench.loop"};
  return names[static_cast<unsigned>(k)];
}

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct span {
  std::uint64_t start = 0;  // ticks
  std::uint64_t end = 0;
  std::uint64_t request = 0;
  std::uint32_t parent = kNoParent;  // index in the same buffer
  span_kind kind = span_kind::op;
  std::uint8_t reads = 1;  // timestamp-read costs inside [start, end]
};

using span_buffer = std::vector<span>;

/// Median cost of one obs::now_ticks() read, in ticks, from back-to-back
/// pairs. An empty span [read, read] measures about this much.
inline double calibrate_read_ticks() {
  constexpr int kPairs = 20001;
  std::vector<std::uint64_t> d(kPairs);
  for (int i = 0; i < 2000; ++i) (void)hyaline::obs::now_ticks();
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t a = hyaline::obs::now_ticks();
    const std::uint64_t b = hyaline::obs::now_ticks();
    d[i] = b - a;
  }
  std::nth_element(d.begin(), d.begin() + kPairs / 2, d.end());
  return static_cast<double>(d[kPairs / 2]);
}

/// A sampled interval longer than this holds a preemption or a host
/// interrupt storm, not work of the program: the benchmark leaves such
/// samples out of every mean it compares (and counts them).
inline constexpr double kOutlierNs = 250e3;

/// Self time per span kind: a span's corrected duration minus the
/// corrected durations of its children. Times in ticks. An op whose root
/// span outlasts the outlier limit is left out with all its children; a
/// request (which starts at its intended time and so includes the wait)
/// is never left out, but each of its children is judged on its own.
struct span_summary {
  struct per_kind {
    std::uint64_t n = 0;
    double sum = 0;
    log_linear_hist hist;  // self time, ticks (rounded, clamped at 0)
    double mean() const { return n == 0 ? 0 : sum / n; }
  };
  per_kind kinds[static_cast<unsigned>(span_kind::count_)];
  std::uint64_t dropped = 0;  // spans left out as outliers

  const per_kind& of(span_kind k) const {
    return kinds[static_cast<unsigned>(k)];
  }
};

inline span_summary summarize(const std::vector<span_buffer>& buffers,
                              double read_ticks, double outlier_ticks) {
  span_summary out;
  for (const span_buffer& buf : buffers) {
    std::vector<double> dur(buf.size());
    std::vector<bool> drop(buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i) {
      const span& s = buf[i];
      const double raw = static_cast<double>(s.end - s.start);
      dur[i] = raw - read_ticks * s.reads;
      const bool judged =
          s.kind != span_kind::request && s.kind != span_kind::svc_wait;
      drop[i] = judged && raw > outlier_ticks;
      if (s.parent != kNoParent && buf[s.parent].kind != span_kind::request &&
          drop[s.parent]) {
        drop[i] = true;  // children follow their parent in the buffer
      }
    }
    std::vector<double> self = dur;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf[i].parent != kNoParent) self[buf[i].parent] -= dur[i];
    }
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (drop[i]) {
        ++out.dropped;
        continue;
      }
      auto& k = out.kinds[static_cast<unsigned>(buf[i].kind)];
      ++k.n;
      k.sum += self[i];
      k.hist.record(
          static_cast<std::uint64_t>(std::max(0.0, self[i]) + 0.5));
    }
  }
  return out;
}

/// Spans as CSV (thread, index in its buffer, name, start and end in ns
/// from `t0`, parent index or -1, request id), one row per span, for
/// inspection with any trace viewer or script.
inline void write_spans_csv(std::FILE* f,
                            const std::vector<span_buffer>& buffers,
                            std::uint64_t t0, double ticks_per_ns) {
  auto ns = [&](std::uint64_t t) {
    return static_cast<long long>(
        std::llround(static_cast<double>(static_cast<std::int64_t>(t - t0)) /
                     ticks_per_ns));
  };
  std::fprintf(f, "thread,index,name,start_ns,end_ns,parent,request\n");
  for (std::size_t t = 0; t < buffers.size(); ++t) {
    for (std::size_t i = 0; i < buffers[t].size(); ++i) {
      const span& s = buffers[t][i];
      std::fprintf(f, "%zu,%zu,%s,%lld,%lld,%lld,%llu\n", t, i,
                   span_name(s.kind), ns(s.start), ns(s.end),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
}

}  // namespace perfbench
