// Sharded domains: the service front end (svc/shard_router.hpp) gives each
// shard its own SMR domain, so one thread holds per-thread scheme state in
// several domains at once. Two claims ride on that:
//
//  - burst entry composes with shards: the reservations (EBR, IBR) or
//    parked slot presences (Hyaline, Hyaline-S) a thread leaves lingering
//    on every shard are released by thread_quiesce(), and the shutdown
//    drain closes each shard's ledger (retired == freed);
//  - a stall is confined to its shard: a guard held on one shard's EBR
//    domain blocks reclamation there while the other shard keeps freeing.
//
// All allocations route through debug_alloc (hooks installed at static
// init, before any node exists), so a shard that drops or double-frees a
// node fails deterministically here rather than flakily in a benchmark.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/debug_alloc.hpp"
#include "common/rng.hpp"
#include "ds_test_common.hpp"
#include "harness/schemes.hpp"
#include "svc/shard_router.hpp"

namespace hyaline {
namespace {

const bool hooks_installed = test_support::install_debug_alloc_hooks();

template <class D>
std::unique_ptr<svc::shard_router<D>> make_router(
    unsigned shards, const harness::scheme_params& p) {
  return std::make_unique<svc::shard_router<D>>(
      shards, [&] { return harness::scheme_traits<D>::make(p); }, 64);
}

template <class D>
class ShardedDomains : public ::testing::Test {};

/// The schemes that amortize guard entry (entry_burst).
using BurstSchemes =
    ::testing::Types<smr::ebr_domain, smr::ibr_domain, domain, domain_s>;
TYPED_TEST_SUITE(ShardedDomains, BurstSchemes);

TYPED_TEST(ShardedDomains, BurstEntryComposesWithShards) {
  using D = TypeParam;
  ASSERT_TRUE(hooks_installed);
  constexpr unsigned kWorkers = 4;
  constexpr int kOps = 3000;
  constexpr std::uint64_t kKeys = 128;

  for (unsigned shards : {2u, 4u}) {
    for (std::uint32_t burst : {1u, 8u, 64u}) {
      SCOPED_TRACE(std::string(harness::scheme_traits<D>::name) +
                   " shards=" + std::to_string(shards) +
                   " burst=" + std::to_string(burst));
      debug_alloc::reset();
      harness::scheme_params p;
      p.batch_min = 8;
      p.entry_burst = burst;
      std::vector<svc::shard_snapshot> snaps;
      {
        auto router = make_router<D>(shards, p);
        for (std::uint64_t k = 0; k < kKeys; k += 2) router->put(k, k);
        router->thread_quiesce();  // the prefilling thread goes idle

        std::vector<std::thread> ts;
        for (unsigned t = 0; t < kWorkers; ++t) {
          ts.emplace_back([&, t] {
            xoshiro256 rng(t * 7919 + 11);
            std::uint64_t out = 0;
            for (int i = 0; i < kOps; ++i) {
              const std::uint64_t k = rng.below(kKeys);
              switch (rng.below(3)) {
                case 0: router->put(k, k); break;
                case 1: router->del(k); break;
                default: router->get(k, out); break;
              }
            }
            router->thread_quiesce();
          });
        }
        for (auto& th : ts) th.join();
        router->shutdown();
        snaps = router->snapshot();
      }

      ASSERT_EQ(snaps.size(), shards);
      std::uint64_t retired = 0;
      for (unsigned s = 0; s < shards; ++s) {
        EXPECT_EQ(snaps[s].retired, snaps[s].freed)
            << "shard " << s << ": a lingering burst reservation blocked "
            << "reclamation past the drain";
        retired += snaps[s].retired;
      }
      EXPECT_GT(retired, 0u);
      EXPECT_EQ(debug_alloc::live_count(), 0u) << "leaked allocations";
      EXPECT_EQ(debug_alloc::double_frees(), 0u);
      EXPECT_EQ(debug_alloc::flush_quarantine(), 0u)
          << "write-after-free: burst elision freed under a live guard";
    }
  }
}

TEST(ShardedDomainsStall, GuardPinsOnlyItsOwnShard) {
  using D = smr::ebr_domain;
  ASSERT_TRUE(hooks_installed);
  debug_alloc::reset();
  auto router = make_router<D>(2, harness::scheme_params{});

  // A key routed to each shard; one thread churns both while the main
  // thread holds a guard on shard 0's domain only.
  std::uint64_t key[2] = {0, 0};
  bool found[2] = {false, false};
  for (std::uint64_t k = 1; !(found[0] && found[1]); ++k) {
    const unsigned s = router->shard_of(k);
    if (!found[s]) {
      key[s] = k;
      found[s] = true;
    }
  }

  constexpr int kRounds = 4000;
  {
    D::guard g(router->domain(0));
    (void)router->touch(g, 0, key[0]);
    std::thread churn([&] {
      for (int i = 0; i < kRounds; ++i) {
        for (unsigned s = 0; s < 2; ++s) {
          ASSERT_TRUE(router->put(key[s], static_cast<std::uint64_t>(i)));
          ASSERT_TRUE(router->del(key[s]));
        }
      }
      router->thread_quiesce();
    });
    churn.join();

    const auto stalled = router->snapshot();
    EXPECT_EQ(stalled[0].retired, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(stalled[0].freed, 0u)
        << "shard 0 freed a node retired under the held guard's epoch";
    EXPECT_EQ(stalled[1].retired, static_cast<std::uint64_t>(kRounds));
    EXPECT_GT(stalled[1].freed, 0u)
        << "a guard on shard 0 blocked reclamation on shard 1";
  }

  router->thread_quiesce();
  router->shutdown();
  for (const svc::shard_snapshot& s : router->snapshot()) {
    EXPECT_EQ(s.retired, s.freed) << "leak after shutdown";
  }
  router.reset();
  EXPECT_EQ(debug_alloc::live_count(), 0u);
  EXPECT_EQ(debug_alloc::flush_quarantine(), 0u);
}

}  // namespace
}  // namespace hyaline
