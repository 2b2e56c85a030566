// Integration tests for the service scenario (svc/service.hpp and
// svc/shard_router.hpp): key routing balance, direct router semantics,
// and an end-to-end swarm — churn plus a stall and a hot-key window —
// over one epoch-style, one robust, and one HP-family scheme, each run
// ending with the retired == freed leak gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness/registry.hpp"
#include "harness/schemes.hpp"
#include "lab/fault_plan.hpp"
#include "svc/service.hpp"
#include "svc/shard_router.hpp"

namespace {

using namespace hyaline::svc;
using hyaline::harness::scheme_registry;
using hyaline::harness::service_runner_fn;

/// The registry entry's service runner; nullptr for an unknown name.
service_runner_fn service_runner(const char* scheme) {
  const scheme_registry::entry* e = scheme_registry::instance().find(scheme);
  return e != nullptr ? e->service : nullptr;
}

TEST(RouteShard, CoversAllShardsRoughlyEvenly) {
  const unsigned kShards = 4;
  const std::uint64_t kKeys = 100000;
  std::vector<std::uint64_t> counts(kShards, 0);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const unsigned s = route_shard(k, kShards);
    ASSERT_LT(s, kShards);
    ++counts[s];
  }
  const double expected = static_cast<double>(kKeys) / kShards;
  for (unsigned s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], expected * 0.9) << "shard " << s;
    EXPECT_LT(counts[s], expected * 1.1) << "shard " << s;
  }
  // Single shard: everything routes to 0.
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(route_shard(k, 1), 0u);
  }
  // Routing is a pure function of (key, shards).
  EXPECT_EQ(route_shard(12345, 4), route_shard(12345, 4));
}

TEST(ShardRouter, BasicOpsAndSnapshot) {
  using D = hyaline::smr::ebr_domain;
  hyaline::harness::scheme_params p;
  shard_router<D> router(
      2, [&] { return hyaline::harness::scheme_traits<D>::make(p); }, 256);
  EXPECT_EQ(router.shards(), 2u);

  EXPECT_TRUE(router.put(1, 10));
  EXPECT_FALSE(router.put(1, 11));  // already present: miss-fill only
  std::uint64_t out = 0;
  EXPECT_TRUE(router.get(1, out));
  EXPECT_EQ(out, 10u);
  EXPECT_FALSE(router.get(2, out));
  EXPECT_TRUE(router.del(1));
  EXPECT_FALSE(router.del(1));
  router.thread_quiesce();

  router.shutdown();
  const auto snaps = router.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  std::uint64_t gets = 0, puts = 0, dels = 0;
  std::uint64_t retired = 0, freed = 0;
  for (const shard_snapshot& s : snaps) {
    gets += s.gets;
    puts += s.puts;
    dels += s.dels;
    retired += s.retired;
    freed += s.freed;
  }
  EXPECT_EQ(gets, 2u);
  EXPECT_EQ(puts, 2u);
  EXPECT_EQ(dels, 2u);
  EXPECT_EQ(retired, freed) << "leak after shutdown";

  const shard_totals totals = aggregate(snaps);
  EXPECT_EQ(totals.ops, gets + puts + dels);
  EXPECT_GT(totals.imbalance, 0.0);
}

// The router's counters live in per-thread cells. First `cells` threads
// run one after another, each taking the id the last one handed back and
// owning its cell. Then 2 * cells + 2 threads take their ids and stay
// live before any op, so ids run past the cell count into the shared
// bank, where the threads with ids h and h + cells bump one cell. After
// the joins every total must still be exact.
TEST(ShardRouter, CountersStayExactWhenThreadsShareCells) {
  using D = hyaline::smr::ebr_domain;
  using hyaline::smr::core::thread_hint;
  const unsigned cells = hyaline::smr::stats_cell_count();
  const unsigned live = 2 * cells + 2;
  const unsigned threads = cells + live;
  shard_router<D> router(
      4, [] { return hyaline::harness::scheme_traits<D>::make({}); }, 256);

  // Each thread owns keys [1000 t, 1000 t + 2 kKeys): it puts the first
  // kKeys, gets all 2 kKeys (half hit), deletes every other one it put.
  constexpr std::uint64_t kKeys = 200;
  std::vector<std::uint64_t> hits(threads, 0);
  std::vector<unsigned> hint_of(threads);
  auto work = [&](unsigned t) {
    hint_of[t] = thread_hint();
    const std::uint64_t base = std::uint64_t{t} * 1000;
    for (std::uint64_t k = 0; k < kKeys; ++k) router.put(base + k, k);
    std::uint64_t out = 0;
    for (std::uint64_t k = 0; k < 2 * kKeys; ++k) {
      if (router.get(base + k, out)) ++hits[t];
    }
    for (std::uint64_t k = 0; k < kKeys; k += 2) router.del(base + k);
    router.thread_quiesce();
  };
  (void)thread_hint();  // this thread keeps its id throughout
  for (unsigned t = 0; t < cells; ++t) std::thread(work, t).join();
  for (unsigned t = 1; t < cells; ++t) {
    EXPECT_EQ(hint_of[t], hint_of[0]) << "thread " << t << " reuses the id";
  }
  EXPECT_LT(hint_of[0], cells) << "a lone thread owns its cell";

  std::atomic<unsigned> hinted{0};
  std::vector<std::thread> workers;
  for (unsigned t = cells; t < threads; ++t) {
    workers.emplace_back([&, t] {
      (void)thread_hint();
      hinted.fetch_add(1, std::memory_order_acq_rel);
      while (hinted.load(std::memory_order_acquire) < live) {
        std::this_thread::yield();
      }
      work(t);
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<unsigned> on_shared_cell(cells, 0);
  for (unsigned t = cells; t < threads; ++t) {
    if (hint_of[t] >= cells) ++on_shared_cell[hint_of[t] & (cells - 1)];
  }
  EXPECT_GE(*std::max_element(on_shared_cell.begin(), on_shared_cell.end()),
            2u)
      << "live threads must share a shared-bank cell";

  std::uint64_t hit_sum = 0;
  for (std::uint64_t h : hits) hit_sum += h;
  EXPECT_EQ(hit_sum, threads * kKeys);

  const auto snaps = router.snapshot();
  shard_snapshot sum;
  for (const shard_snapshot& s : snaps) {
    sum.gets += s.gets;
    sum.hits += s.hits;
    sum.puts += s.puts;
    sum.dels += s.dels;
  }
  EXPECT_EQ(sum.gets, threads * 2 * kKeys);
  EXPECT_EQ(sum.hits, hit_sum);
  EXPECT_EQ(sum.puts, threads * kKeys);
  EXPECT_EQ(sum.dels, threads * kKeys / 2);

  const shard_totals totals = aggregate(snaps);
  EXPECT_EQ(totals.ops, sum.ops());
  EXPECT_EQ(totals.gets, sum.gets);
  EXPECT_EQ(totals.hits, sum.hits);

  router.shutdown();
  const shard_totals after = aggregate(router.snapshot());
  EXPECT_EQ(after.retired, after.freed) << "leak after shutdown";
}

// One short end-to-end swarm per scheme family the acceptance criteria
// name: epoch-style, robust, and hazard-pointer. 4 tenants over 2
// shards, connection churn every 100 ms, tenant 1 stalls in-guard for
// 100 ms and tenant 3 hammers the hot key — then the leak gate.
class ServiceSwarm : public ::testing::TestWithParam<const char*> {};

TEST_P(ServiceSwarm, RunsChurnAndFaultsWithoutLeaking) {
  const std::string scheme = GetParam();
  service_runner_fn run = service_runner(scheme.c_str());
  ASSERT_NE(run, nullptr) << scheme;

  std::string err;
  const auto faults = hyaline::lab::parse_fault_plan(
      "stall:1@100ms+100ms,hot:3@150ms+100ms", &err);
  ASSERT_TRUE(faults.has_value()) << err;
  ASSERT_TRUE(faults->validate_tids(4, &err)) << err;
  ASSERT_TRUE(faults->runs_on(hyaline::lab::fault_loop::service, &err))
      << err;

  service_config cfg;
  cfg.shards = 2;
  cfg.tenants = 4;
  cfg.rate_ops_s = 8000;  // paced: latency is CO-safe by construction
  cfg.zipf_theta = 0.9;
  cfg.key_range = 20000;
  cfg.prefill = 5000;
  cfg.duration_ms = 400;
  cfg.sample_ms = 20;
  cfg.churn_period_ms = 100;
  cfg.buckets_per_shard = 1024;
  cfg.faults = &*faults;

  hyaline::harness::scheme_params p;
  p.ack_threshold = 128;
  const service_result res = run(p, cfg);

  EXPECT_GT(res.ops, 0u);
  EXPECT_GT(res.duration_s, 0.0);
  EXPECT_EQ(res.retired, res.freed) << scheme << " leaked";
  ASSERT_EQ(res.shards.size(), 2u);

  // Victims (tenants 0, 2) and bad tenants (1, 3) record separately.
  EXPECT_GT(res.victim_hist.total(), 0u);
  EXPECT_GT(res.scripted_hist.total(), 0u);

  // The telemetry timeline exists and is time-ordered.
  ASSERT_FALSE(res.timeline.empty());
  for (std::size_t i = 1; i < res.timeline.size(); ++i) {
    EXPECT_LE(res.timeline[i - 1].t_ms, res.timeline[i].t_ms);
  }
  EXPECT_GE(res.unreclaimed_peak,
            res.timeline.back().unreclaimed == 0
                ? 0u
                : res.timeline.back().unreclaimed);

  // Shard counters saw at least the tenant ops (prefill adds more).
  const shard_totals totals = aggregate(res.shards);
  EXPECT_GE(totals.ops, res.ops);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ServiceSwarm,
                         ::testing::Values("Epoch", "Hyaline-S", "HP"));

TEST(ServiceMatrix, CoversRegistryMinusMutex) {
  // The core lineup plus the CAS-flavor variants; Mutex has no
  // guard/retire protocol to shard.
  std::vector<std::string> names;
  for (const scheme_registry::entry& e : scheme_registry::instance().schemes()) {
    if (e.service != nullptr) names.push_back(e.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "Leaky", "Epoch", "Hyaline", "Hyaline-1", "Hyaline-S",
                       "Hyaline-1S", "IBR", "HE", "HP", "Hyaline(dwcas)",
                       "Hyaline(llsc)", "Hyaline-S(llsc)"}));
  EXPECT_EQ(service_runner("Mutex"), nullptr);
  EXPECT_EQ(service_runner("NoSuchScheme"), nullptr);
}

TEST(Service, ClosedLoopAndUnpacedConfigs) {
  // rate 0 = closed loop; no script, no churn, no telemetry. The swarm
  // must still run, count ops, and pass the leak gate.
  service_config cfg;
  cfg.shards = 1;
  cfg.tenants = 2;
  cfg.rate_ops_s = 0;
  cfg.zipf_theta = 0.0;  // uniform
  cfg.key_range = 4096;
  cfg.prefill = 1024;
  cfg.duration_ms = 100;
  cfg.sample_ms = 0;  // no timeline
  cfg.buckets_per_shard = 512;

  service_runner_fn run = service_runner("Hyaline");
  ASSERT_NE(run, nullptr);
  const service_result res = run(hyaline::harness::scheme_params{}, cfg);
  EXPECT_GT(res.ops, 0u);
  EXPECT_EQ(res.retired, res.freed);
  EXPECT_TRUE(res.timeline.empty());
  EXPECT_EQ(res.scripted_hist.total(), 0u);
  EXPECT_GT(res.victim_hist.total(), 0u);
}

}  // namespace
