// Shared fixture for the data-structure test suites: constructs a domain
// of each scheme type with small batches/thresholds so reclamation
// happens within test-sized workloads.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/debug_alloc.hpp"
#include "common/rng.hpp"
#include "harness/schemes.hpp"
#include "smr/core/node_alloc.hpp"

namespace hyaline::test_support {

/// Route every node allocation through debug_alloc so leaks, double frees
/// and writes-after-free become deterministic failures. Install at
/// static-initialization time, before any node exists, so allocate/free
/// pairs always agree (see smr/core/node_alloc.hpp):
///   const bool hooks_installed = test_support::install_debug_alloc_hooks();
inline bool install_debug_alloc_hooks() {
  smr::core::node_alloc_hook = [](std::size_t n) {
    return debug_alloc::allocate(n);
  };
  smr::core::node_free_hook = [](void* p) { debug_alloc::deallocate(p); };
  return true;
}

inline harness::scheme_params small_params() {
  harness::scheme_params p;
  p.slots = 4;
  p.batch_min = 8;
  return p;
}

template <class D, template <class> class DS>
class ds_fixture : public ::testing::Test {
 protected:
  ds_fixture()
      : dom_(harness::scheme_traits<D>::make(small_params())),
        ds_(std::make_unique<DS<D>>(*dom_)) {}

  ~ds_fixture() override {
    ds_.reset();   // structure teardown frees live nodes directly
    dom_->drain(); // retired-but-unreclaimed nodes drain here
    EXPECT_EQ(dom_->counters().retired.load(std::memory_order_relaxed),
              dom_->counters().freed.load(std::memory_order_relaxed))
        << "leak: retired nodes were never freed";
  }

  typename D::guard guard() { return typename D::guard(*dom_); }

  std::unique_ptr<D> dom_;
  std::unique_ptr<DS<D>> ds_;
};

/// Mixed-op stress: N threads randomly insert/remove/contains over a small
/// key range; afterwards the structure size must equal the net number of
/// successful inserts minus removes.
template <class D, template <class> class DS>
void run_mixed_stress(D& dom, DS<D>& s, unsigned threads, int ops,
                      std::uint64_t range) {
  std::vector<std::thread> ts;
  std::atomic<long> net{0};
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      xoshiro256 rng(t * 92821 + 3);
      long local = 0;
      for (int i = 0; i < ops; ++i) {
        typename D::guard g(dom);
        const std::uint64_t k = rng.below(range);
        switch (rng.below(4)) {
          case 0:
          case 1:
            if (s.insert(g, k, k + 1)) ++local;
            break;
          case 2:
            if (s.remove(g, k)) --local;
            break;
          default:
            s.contains(g, k);
            break;
        }
      }
      net.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& th : ts) th.join();
  ASSERT_GE(net.load(std::memory_order_relaxed), 0);
  EXPECT_EQ(s.unsafe_size(), static_cast<std::size_t>(net.load(std::memory_order_relaxed)));
}

using AllSchemes =
    ::testing::Types<smr::leaky_domain, smr::ebr_domain, smr::hp_domain,
                     smr::he_domain, smr::ibr_domain, domain, domain_dw,
                     domain_llsc, domain_s, domain_1, domain_1s>;

/// Bonsai cannot run under pointer-publication schemes (HP/HE); see the
/// header comment in ds/bonsai_tree.hpp.
using SnapshotSafeSchemes =
    ::testing::Types<smr::leaky_domain, smr::ebr_domain, smr::ibr_domain,
                     domain, domain_dw, domain_llsc, domain_s, domain_1,
                     domain_1s>;

/// Guard-lifetime epoch-style schemes: the only ones that may traverse
/// structures with deferred unlinking (Harris's original list) — a robust
/// scheme's reservation does not pin nodes reached through marked
/// segments. See ds/harris_list.hpp.
using EpochStyleSchemes =
    ::testing::Types<smr::leaky_domain, smr::ebr_domain, domain, domain_dw,
                     domain_llsc, domain_1>;

}  // namespace hyaline::test_support
