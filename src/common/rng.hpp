// Small, fast PRNGs for workload generation.
//
// The benchmark harness needs a per-thread generator that is (a) cheap
// enough not to perturb the measured data-structure operation, and (b)
// statistically good enough for uniform key draws. xoshiro256** fits both;
// splitmix64 seeds it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace hyaline {

/// splitmix64 — used to expand a single 64-bit seed into generator state.
class splitmix64 {
 public:
  explicit splitmix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — per-thread workload generator.
class xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit xoshiro256(std::uint64_t seed) {
    splitmix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform draw in [0, bound) without modulo bias worth caring about for
  /// benchmark purposes (Lemire's multiply-shift reduction).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Zipfian rank distribution over [0, n): P(rank) ∝ 1/(rank+1)^theta,
/// rank 0 hottest. Exact inverse-CDF sampling: the constructor builds
/// the cumulative table in one O(n) pass (the same pass the zeta-sum
/// normalization needs anyway), each draw is one uniform double and a
/// binary search — ~log2(n) probes over a contiguous array, cheap
/// enough to sit inside a paced service loop without perturbing the
/// measured op. Unlike the Gray et al. two-rank approximation this
/// matches the analytic distribution at every rank (the chi-square unit
/// test's property), at the cost of 8n bytes of table; with service key
/// ranges in the 1e5 class and ONE shared const instance serving every
/// worker thread (draws are stateless), that is noise. theta = 0
/// degenerates to the exact uniform distribution, theta -> 1
/// approaches classic Zipf.
class zipf_generator {
 public:
  zipf_generator(std::uint64_t n, double theta)
      : n_(n == 0 ? 1 : n), theta_(theta), cdf_(n_) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n_; ++i) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
      cdf_[i - 1] = zetan;  // unnormalized; divided through below
    }
    zetan_ = zetan;
    for (double& c : cdf_) c /= zetan_;
    // u < 1 strictly, so an exact 1.0 sentinel keeps the search in
    // range even when rounding left cdf_.back() a hair under 1.
    cdf_.back() = 1.0;
  }

  /// Draw one rank in [0, range()). Works with any generator exposing
  /// next() -> uint64 (xoshiro256, splitmix64).
  template <class Rng>
  std::uint64_t operator()(Rng& rng) const {
    // 53 uniform mantissa bits -> u in [0, 1).
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    return static_cast<std::uint64_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

  /// Analytic P(rank) — what the chi-square unit test checks draws
  /// against.
  double probability(std::uint64_t rank) const {
    return 1.0 / std::pow(static_cast<double>(rank + 1), theta_) / zetan_;
  }

  std::uint64_t range() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0;
  std::vector<double> cdf_;
};

}  // namespace hyaline
