// Sharded retire domains (scheme_params::retire_shards) and the amortized
// guard-entry burst, driven through the registry's type-erased runners:
// for every scheme that supports sharding, a shard-count sweep must keep
// the leak ledger closed (retired == freed after the quiescent drain) and
// the recorded histories linearizable — sharding moves retired nodes
// between lists, it must never change what gets freed or when it is safe.
//
// All allocations route through debug_alloc (hooks installed at static
// init, before any node exists), so a shard list that drops or
// double-frees a node fails deterministically here rather than flakily in
// a benchmark.
#include <gtest/gtest.h>

#include <string>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "common/debug_alloc.hpp"
#include "ds_test_common.hpp"
#include "harness/registry.hpp"

namespace hyaline {
namespace {

const bool hooks_installed = test_support::install_debug_alloc_hooks();

harness::workload_config contended_workload() {
  harness::workload_config cfg;
  cfg.threads = 4;
  cfg.duration_ms = 25;
  cfg.repeats = 1;
  cfg.key_range = 128;
  cfg.prefill = 32;
  cfg.insert_pct = 40;
  cfg.remove_pct = 40;
  cfg.get_pct = 20;
  return cfg;
}

/// Schemes whose retire path honors scheme_params::retire_shards.
const char* const kShardedSchemes[] = {"Leaky", "Epoch", "IBR", "HP", "HE"};

TEST(ShardedDomains, ShardSweepKeepsTheLeakLedgerClosed) {
  ASSERT_TRUE(hooks_installed);
  const auto& reg = harness::scheme_registry::instance();
  const harness::workload_config cfg = contended_workload();

  for (const char* scheme : kShardedSchemes) {
    for (unsigned shards : {1u, 2u, 4u}) {
      for (const char* structure : {"hashmap", "msqueue"}) {
        SCOPED_TRACE(std::string(scheme) + " x " + structure + " shards=" +
                     std::to_string(shards));
        debug_alloc::reset();
        harness::runner_fn run = reg.runner(scheme, structure);
        ASSERT_NE(run, nullptr);
        harness::scheme_params p;
        p.max_threads = 8;
        p.retire_shards = shards;
        const harness::workload_result r = run(p, cfg);
        EXPECT_GT(r.total_ops, 0u);
        EXPECT_EQ(r.retired, r.freed)
            << "sharded retire lists leaked after drain";
        EXPECT_EQ(debug_alloc::live_count(), 0u) << "leaked allocations";
        EXPECT_EQ(debug_alloc::double_frees(), 0u);
        EXPECT_EQ(debug_alloc::flush_quarantine(), 0u)
            << "write-after-free: a shard freed a node that was still "
               "reachable";
      }
    }
  }
}

TEST(ShardedDomains, ShardedCellHistoriesStayLinearizable) {
  ASSERT_TRUE(hooks_installed);
  const auto& reg = harness::scheme_registry::instance();

  for (const char* scheme : {"Epoch", "HP"}) {
    SCOPED_TRACE(scheme);
    debug_alloc::reset();
    check::history_recorder rec;
    harness::workload_config cfg = contended_workload();
    cfg.key_range = 24;  // small-key contention, as in the check driver
    cfg.prefill = 12;
    cfg.history = &rec;
    harness::scheme_params p;
    p.max_threads = 8;
    p.retire_shards = 2;
    harness::runner_fn run = reg.runner(scheme, "hashmap");
    ASSERT_NE(run, nullptr);
    const harness::workload_result r = run(p, cfg);
    EXPECT_EQ(r.retired, r.freed);
    const check::check_result res = check::check_history(
        check::semantics::set, rec.collect(), /*complete=*/false);
    EXPECT_TRUE(res.ok) << (res.bad ? res.bad->what : "");
    EXPECT_GT(res.ops, 0u);
    EXPECT_EQ(debug_alloc::flush_quarantine(), 0u);
  }
}

TEST(ShardedDomains, BurstEntryComposesWithShards) {
  // EBR, IBR and the Hyaline family amortize guard entry
  // (caps.burst_entry); combine a live burst window with sharded retire
  // lists (Hyaline ignores retire_shards) and the ledger must still
  // close — the drain clears every lingering reservation or parked slot
  // presence before scanning or flushing.
  ASSERT_TRUE(hooks_installed);
  const auto& reg = harness::scheme_registry::instance();
  harness::workload_config cfg = contended_workload();
  cfg.duration_ms = 40;

  for (const char* scheme : {"Epoch", "IBR", "Hyaline", "Hyaline-S"}) {
    for (std::uint32_t burst : {1u, 8u, 64u}) {
      SCOPED_TRACE(std::string(scheme) + " burst=" +
                   std::to_string(burst));
      debug_alloc::reset();
      harness::scheme_params p;
      p.max_threads = 8;
      p.retire_shards = 2;
      p.entry_burst = burst;
      harness::runner_fn run = reg.runner(scheme, "hashmap");
      ASSERT_NE(run, nullptr);
      const harness::workload_result r = run(p, cfg);
      EXPECT_GT(r.total_ops, 0u);
      EXPECT_EQ(r.retired, r.freed)
          << "a lingering burst reservation blocked reclamation forever";
      EXPECT_EQ(debug_alloc::live_count(), 0u);
      EXPECT_EQ(debug_alloc::flush_quarantine(), 0u)
          << "write-after-free: burst elision freed under a live guard";
    }
  }

  // The burst caps are advertised: schemes that amortize entry say so.
  EXPECT_TRUE(reg.find("Epoch")->caps.burst_entry);
  EXPECT_TRUE(reg.find("IBR")->caps.burst_entry);
  EXPECT_TRUE(reg.find("Hyaline")->caps.burst_entry);
  EXPECT_TRUE(reg.find("Hyaline-S")->caps.burst_entry);
  EXPECT_FALSE(reg.find("HP")->caps.burst_entry);
  EXPECT_FALSE(reg.find("HE")->caps.burst_entry);
}

}  // namespace
}  // namespace hyaline
