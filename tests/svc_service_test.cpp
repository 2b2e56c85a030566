// Integration tests for the service scenario (svc/service.hpp and
// svc/shard_router.hpp): key routing balance, direct router semantics,
// and an end-to-end swarm — churn plus a stall and a hot-key window —
// over one epoch-style, one robust, and one HP-family scheme, each run
// ending with the retired == freed leak gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/registry.hpp"
#include "harness/schemes.hpp"
#include "svc/service.hpp"
#include "svc/shard_router.hpp"
#include "svc/tenant.hpp"

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
  router.scan(0, 0, 16);
  router.thread_quiesce();

  router.shutdown();
  const auto snaps = router.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  std::uint64_t gets = 0, puts = 0, dels = 0, scans = 0;
  std::uint64_t retired = 0, freed = 0;
  for (const shard_snapshot& s : snaps) {
    gets += s.gets;
    puts += s.puts;
    dels += s.dels;
    scans += s.scans;
    retired += s.retired;
    freed += s.freed;
  }
  EXPECT_EQ(gets, 2u);
  EXPECT_EQ(puts, 2u);
  EXPECT_EQ(dels, 2u);
  EXPECT_EQ(scans, 1u);
  EXPECT_EQ(retired, freed) << "leak after shutdown";

  const shard_totals totals = aggregate(snaps);
  EXPECT_EQ(totals.ops, gets + puts + dels + scans);
  EXPECT_GT(totals.imbalance, 0.0);
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
  const auto script =
      parse_tenant_plan("stall:1@100ms+100ms,hot:3@150ms+100ms", &err);
  ASSERT_TRUE(script.has_value()) << err;
  ASSERT_TRUE(script->validate(4, &err)) << err;

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
  cfg.script = &*script;

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
