// Log-linear histogram with a bounded relative bucket error.
//
// Values below 2 * kSub have a bucket each. Above that, every power-of-two
// range [2^e, 2^(e+1)) is cut into kSub equal sub-buckets, so a bucket is
// at most 1/kSub = 0.78% of its lower edge wide, and a percentile read at
// the bucket midpoint is within 0.4% of a sample in that bucket. The
// library's lab::latency_histogram uses log2 buckets (up to 100% error);
// percentiles reported by this benchmark never come from it.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

class log_linear_hist {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::uint64_t kExact = 2 * kSub;
  static constexpr unsigned kBuckets = kExact + (64 - kSubBits - 1) * kSub;

  log_linear_hist() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    const unsigned i = index(v);
    ++counts_[i];
    lo_ = std::min(lo_, i);
    hi_ = std::max(hi_, i);
    ++total_;
    sum_ += static_cast<double>(v);
  }

  void merge(const log_linear_hist& o) {
    if (o.total_ == 0) return;
    for (unsigned i = o.lo_; i <= o.hi_; ++i) counts_[i] += o.counts_[i];
    lo_ = std::min(lo_, o.lo_);
    hi_ = std::max(hi_, o.hi_);
    total_ += o.total_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return total_; }
  double mean() const { return total_ == 0 ? 0 : sum_ / total_; }

  /// Nearest-rank percentile, q in (0, 1], read at the bucket midpoint.
  /// 0 when empty.
  double percentile(double q) const {
    if (total_ == 0) return 0;
    const double want = std::ceil(q * static_cast<double>(total_));
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(want));
    std::uint64_t seen = 0;
    for (unsigned i = lo_; i <= hi_; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return static_cast<double>(lower(i)) +
               static_cast<double>(width(i) - 1) / 2.0;
      }
    }
    return static_cast<double>(lower(hi_));
  }

  static unsigned index(std::uint64_t v) {
    if (v < kExact) return static_cast<unsigned>(v);
    const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - 1 -
                           kSubBits;  // >= 1
    const std::uint64_t top = v >> shift;  // in [kSub, 2 * kSub)
    return static_cast<unsigned>(kExact + (shift - 1) * kSub + (top - kSub));
  }

  static std::uint64_t lower(unsigned idx) {
    if (idx < kExact) return idx;
    const std::uint64_t j = idx - kExact;
    const unsigned shift = static_cast<unsigned>(j / kSub) + 1;
    return (kSub + j % kSub) << shift;
  }

  static std::uint64_t width(unsigned idx) {
    if (idx < kExact) return 1;
    return std::uint64_t{1} << ((idx - kExact) / kSub + 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  unsigned lo_ = kBuckets;  // lowest and highest bucket used
  unsigned hi_ = 0;
  std::uint64_t total_ = 0;
  double sum_ = 0;
};

}  // namespace perfbench
