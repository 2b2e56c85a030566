// Cross-cutting stress and failure-injection tests: oversubscription,
// thread churn, stalled threads against robust schemes, trim under load,
// and the workload harness itself.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ds/michael_hashmap.hpp"
#include "ds/natarajan_tree.hpp"
#include "ds_test_common.hpp"
#include "harness/workload.hpp"

namespace hyaline {
namespace {

// --- transparency: thread churn over a fixed slot set (Hyaline only) ----

TEST(Transparency, HundredsOfThreadLifetimesOverFourSlots) {
  domain dom(config{.slots = 4, .batch_min = 8});
  ds::michael_hashmap<domain> map(dom, 512);
  for (int wave = 0; wave < 8; ++wave) {
    std::vector<std::thread> ts;
    for (int t = 0; t < 24; ++t) {
      ts.emplace_back([&, wave, t] {
        xoshiro256 rng(wave * 100 + t);
        for (int i = 0; i < 500; ++i) {
          domain::guard g(dom);
          const std::uint64_t k = rng.below(128);
          if (rng.below(2) == 0) {
            map.insert(g, k, k);
          } else {
            map.remove(g, k);
          }
        }
        dom.flush();
      });
    }
    for (auto& th : ts) th.join();
  }
  dom.drain();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), dom.counters().freed.load(std::memory_order_relaxed));
}

// --- robustness under stalled threads, end to end ------------------------

template <class D>
std::uint64_t unreclaimed_with_stalled_thread(D& dom, bool deref_first) {
  ds::michael_hashmap<D> map(dom, 512);
  {
    typename D::guard g(dom);
    for (std::uint64_t k = 0; k < 256; ++k) map.insert(g, k, k);
  }
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  std::thread stalled([&] {
    typename D::guard g(dom);
    if (deref_first) map.contains(g, 7);
    ready.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  for (int i = 0; i < 20000; ++i) {
    typename D::guard g(dom);
    const std::uint64_t k = static_cast<std::uint64_t>(i) % 256;
    map.remove(g, k);
    map.insert(g, k, k);
  }
  const std::uint64_t unreclaimed = dom.counters().unreclaimed();
  hold.store(false, std::memory_order_release);
  stalled.join();
  dom.drain();
  return unreclaimed;
}

TEST(Robustness, EpochIsBlockedByStalledThread) {
  smr::ebr_domain dom(smr::ebr_config{.advance_freq = 32});
  const auto unreclaimed = unreclaimed_with_stalled_thread(dom, true);
  EXPECT_GT(unreclaimed, 10000u)
      << "EBR must accumulate garbage behind the pinned epoch";
}

TEST(Robustness, HyalineSStaysBoundedWithStalledThread) {
  domain_s dom(config{.slots = 4, .batch_min = 8, .era_freq = 16});
  const auto unreclaimed = unreclaimed_with_stalled_thread(dom, true);
  EXPECT_LT(unreclaimed, 10000u)
      << "era-based slot skipping must keep reclamation flowing";
}

TEST(Robustness, Hyaline1SStaysBoundedWithStalledThread) {
  domain_1s dom(config1{.batch_min = 8, .era_freq = 16});
  const auto unreclaimed = unreclaimed_with_stalled_thread(dom, true);
  EXPECT_LT(unreclaimed, 10000u);
}

TEST(Robustness, IbrStaysBoundedWithStalledThread) {
  smr::ibr_domain dom(
      smr::ibr_config{.era_freq = 16, .scan_threshold = 16});
  const auto unreclaimed = unreclaimed_with_stalled_thread(dom, true);
  EXPECT_LT(unreclaimed, 10000u);
}

TEST(Robustness, BasicHyalineIsNotRobust) {
  // Honesty check: basic Hyaline, like EBR, is *not* robust (Table 1); a
  // stalled thread inside a slot with traffic pins every batch inserted
  // there.
  domain dom(config{.slots = 2, .batch_min = 8});
  const auto unreclaimed = unreclaimed_with_stalled_thread(dom, true);
  EXPECT_GT(unreclaimed, 10000u);
}

// --- record growth under load -------------------------------------------

// No thread capacity: threads claim per-thread records as they arrive.
// Early threads churn a map (retiring and scanning) while late threads
// join and claim records past the registry's first segment; then the
// late threads churn alone. Every retired node must be freed, and the
// late threads' reclamation passes (scans; batch finalizations for
// Hyaline-1) must reach the domain's counters.
template <class D>
class RecordGrowth : public ::testing::Test {};

using RecordSchemes = ::testing::Types<smr::ebr_domain, smr::ibr_domain,
                                       smr::hp_domain, smr::he_domain,
                                       domain_1>;
TYPED_TEST_SUITE(RecordGrowth, RecordSchemes);

TYPED_TEST(RecordGrowth, LateThreadsPastTheFirstSegmentScanAndReclaim) {
  using D = TypeParam;
  constexpr unsigned kEarly = smr::core::kFirstSegmentRecords;
  constexpr unsigned kLate = 2 * smr::core::kFirstSegmentRecords;
  auto passes = [](const D& dom) {
    const smr::stats_snapshot s = dom.counters().snapshot();
    return s.scans + s.finalizes;
  };
  D dom;
  std::uint64_t late_passes = 0;
  {
    ds::michael_hashmap<D> map(dom, 256);
    auto churn = [&](std::uint64_t seed, int ops) {
      xoshiro256 rng(seed);
      for (int i = 0; i < ops; ++i) {
        typename D::guard g(dom);
        const std::uint64_t k = rng.below(128);
        if (rng.below(2) == 0) {
          map.insert(g, k, k);
        } else {
          map.remove(g, k);
        }
      }
    };
    std::atomic<bool> stop{false};
    std::atomic<bool> go_late{false};
    std::atomic<unsigned> claimed{0};
    std::vector<std::thread> early;
    for (unsigned t = 0; t < kEarly; ++t) {
      early.emplace_back([&, t] {
        churn(t * 100000, 100);  // claims a record before any thread exits
        claimed.fetch_add(1, std::memory_order_acq_rel);
        for (std::uint64_t r = 1; !stop.load(std::memory_order_acquire); ++r) {
          churn(t * 100000 + r, 100);
        }
      });
    }
    std::vector<std::thread> late;
    for (unsigned t = 0; t < kLate; ++t) {
      late.emplace_back([&, t] {
        churn(1000000 + t, 100);  // likewise
        claimed.fetch_add(1, std::memory_order_acq_rel);
        while (!go_late.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        churn(2000000 + t, 3000);
        harness::detail::flush_thread(dom);
      });
    }
    while (claimed.load(std::memory_order_acquire) < kEarly + kLate) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& th : early) th.join();
    const std::uint64_t before = passes(dom);
    go_late.store(true, std::memory_order_release);
    for (std::thread& th : late) th.join();
    late_passes = passes(dom) - before;
  }
  dom.drain();
  EXPECT_EQ(dom.counters().snapshot().tid_acquires, kEarly + kLate)
      << "every thread alive at once claims a record of its own";
  EXPECT_GT(late_passes, 0u) << "the late threads' passes went uncounted";
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed),
            dom.counters().freed.load(std::memory_order_relaxed));
}

// --- trim under concurrent load -----------------------------------------

TEST(Trim, ConcurrentTrimmersReclaimEverything) {
  domain dom(config{.slots = 2, .batch_min = 8});
  ds::michael_hashmap<domain> map(dom, 512);
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&, t] {
      xoshiro256 rng(t + 5);
      for (int outer = 0; outer < 20; ++outer) {
        domain::guard g(dom);
        for (int i = 0; i < 200; ++i) {
          const std::uint64_t k = rng.below(128);
          if (rng.below(2) == 0) {
            map.insert(g, k, k);
          } else {
            map.remove(g, k);
          }
          g.trim();
        }
      }
      dom.flush();
    });
  }
  for (auto& th : ts) th.join();
  dom.drain();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), dom.counters().freed.load(std::memory_order_relaxed));
}

// --- the workload harness itself -----------------------------------------

TEST(Harness, ReportsThroughputAndReclaims) {
  auto dom = harness::scheme_traits<domain>::make(test_support::small_params());
  ds::michael_hashmap<domain> map(*dom, 1024);
  harness::workload_config cfg;
  cfg.threads = 2;
  cfg.duration_ms = 100;
  cfg.prefill = 500;
  cfg.key_range = 1000;
  const auto r = harness::run_workload(*dom, map, cfg);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.mops, 0.0);
  dom->drain();
  EXPECT_EQ(dom->counters().retired.load(std::memory_order_relaxed), dom->counters().freed.load(std::memory_order_relaxed));
}

TEST(Harness, StalledThreadsModeRuns) {
  auto dom =
      harness::scheme_traits<domain_s>::make(test_support::small_params());
  ds::michael_hashmap<domain_s> map(*dom, 1024);
  harness::workload_config cfg;
  cfg.threads = 2;
  cfg.stalled_threads = 2;
  cfg.duration_ms = 100;
  cfg.prefill = 200;
  cfg.key_range = 512;
  const auto r = harness::run_workload(*dom, map, cfg);
  EXPECT_GT(r.total_ops, 0u);
  dom->drain();
  EXPECT_EQ(dom->counters().retired.load(std::memory_order_relaxed), dom->counters().freed.load(std::memory_order_relaxed));
}

TEST(Harness, TrimModeRuns) {
  auto dom = harness::scheme_traits<domain>::make(test_support::small_params());
  ds::michael_hashmap<domain> map(*dom, 1024);
  harness::workload_config cfg;
  cfg.threads = 2;
  cfg.duration_ms = 100;
  cfg.prefill = 200;
  cfg.key_range = 512;
  cfg.use_trim = true;
  const auto r = harness::run_workload(*dom, map, cfg);
  EXPECT_GT(r.total_ops, 0u);
  dom->drain();
  EXPECT_EQ(dom->counters().retired.load(std::memory_order_relaxed), dom->counters().freed.load(std::memory_order_relaxed));
}

TEST(Harness, ReadMostlyMixRuns) {
  auto dom = harness::scheme_traits<smr::ibr_domain>::make(
      test_support::small_params());
  ds::natarajan_tree<smr::ibr_domain> tree(*dom);
  harness::workload_config cfg;
  cfg.threads = 3;
  cfg.duration_ms = 100;
  cfg.prefill = 300;
  cfg.key_range = 1000;
  cfg.insert_pct = 5;
  cfg.remove_pct = 5;
  cfg.get_pct = 90;
  const auto r = harness::run_workload(*dom, tree, cfg);
  EXPECT_GT(r.total_ops, 0u);
  dom->drain();
  EXPECT_EQ(dom->counters().retired.load(std::memory_order_relaxed), dom->counters().freed.load(std::memory_order_relaxed));
}

// --- oversubscription ----------------------------------------------------

TEST(Oversubscription, SixteenThreadsOverFourSlots) {
  domain dom(config{.slots = 4, .batch_min = 16});
  ds::natarajan_tree<domain> tree(dom);
  test_support::run_mixed_stress(dom, tree, 16, 1500, 128);
  dom.drain();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), dom.counters().freed.load(std::memory_order_relaxed));
}

}  // namespace
}  // namespace hyaline
