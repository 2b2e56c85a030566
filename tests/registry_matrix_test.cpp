// Registry-driven smoke matrix: every registered scheme × structure pair
// runs a brief mixed workload through the type-erased runner, with every
// node allocation routed through debug_alloc via the smr::core node
// allocation hooks. Leaks, double frees and writes-after-free anywhere in
// the matrix become deterministic failures.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/debug_alloc.hpp"
#include "ds_test_common.hpp"
#include "harness/registry.hpp"

namespace hyaline {
namespace {

const bool hooks_installed = test_support::install_debug_alloc_hooks();

harness::workload_config tiny_workload() {
  harness::workload_config cfg;
  cfg.threads = 2;
  cfg.duration_ms = 15;
  cfg.repeats = 1;
  cfg.key_range = 512;
  cfg.prefill = 128;
  cfg.insert_pct = 40;
  cfg.remove_pct = 40;
  cfg.get_pct = 20;
  return cfg;
}

TEST(RegistryMatrix, EveryCellRunsLeakFree) {
  ASSERT_TRUE(hooks_installed);
  debug_alloc::reset();

  harness::scheme_params p;
  p.max_threads = 16;
  p.slots = 4;
  p.batch_min = 8;
  const harness::workload_config cfg = tiny_workload();

  const auto& reg = harness::scheme_registry::instance();
  ASSERT_FALSE(reg.schemes().empty());
  std::size_t cells = 0;
  std::uint64_t total_ops = 0;
  for (const auto& scheme : reg.schemes()) {
    for (const auto& cell : scheme.cells) {
      SCOPED_TRACE(scheme.name + " x " + cell.structure);
      const harness::workload_result r = cell.run(p, cfg);
      ++cells;
      total_ops += r.total_ops;
      EXPECT_EQ(r.retired, r.freed)
          << "scheme leaked retired nodes after drain";
      if (cell.kind == harness::structure_kind::container) {
        // Container cells additionally close the conservation ledger
        // (threads=2 derives a 1 producer / 1 consumer split here).
        EXPECT_EQ(r.enqueued, r.dequeued + r.drained)
            << "container lost or duplicated items";
        EXPECT_GE(r.enqueued, cfg.prefill);
      }
      // Structure and domain are torn down inside the runner: every node
      // the cell ever allocated must be back in the quarantine by now.
      EXPECT_EQ(debug_alloc::live_count(), 0u) << "leaked node allocations";
    }
  }
  // 12 SMR schemes x (list, hashmap, nmtree), bonsai for the 10 non-HP/HE
  // schemes, harris for the 6 guard-lifetime epoch-style schemes,
  // 12 x the two container cells (msqueue, stack — no capability gates),
  // plus the Mutex honesty baseline's own two cells (lockedset,
  // lockedqueue). A single cell may complete zero ops on a badly
  // oversubscribed CI box; the matrix as a whole must make progress.
  EXPECT_EQ(cells, 12u * 3u + 10u + 6u + 12u * 2u + 2u);
  EXPECT_GT(total_ops, 0u);
  EXPECT_EQ(debug_alloc::double_frees(), 0u) << "double free detected";
  EXPECT_EQ(debug_alloc::flush_quarantine(), 0u)
      << "write-after-free detected (poison corrupted)";
}

TEST(RegistryMatrix, LineupAndCapabilitiesMatchThePaper) {
  const auto& reg = harness::scheme_registry::instance();

  // The paper's nine headline schemes are all selectable by name.
  const char* const nine[] = {"Leaky",     "Epoch",      "HP",
                              "HE",        "IBR",        "Hyaline",
                              "Hyaline-1", "Hyaline-S",  "Hyaline-1S"};
  for (const char* name : nine) {
    const auto* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_TRUE(e->core_lineup) << name;
    EXPECT_NE(e->runner_for("hashmap"), nullptr) << name;
  }

  // The coarse-mutex honesty baseline rides along tagged
  // external_baseline, outside the core lineup, with its own two
  // structures — SMR-only sweeps key off exactly this flag.
  {
    const auto* mutex_entry = reg.find("Mutex");
    ASSERT_NE(mutex_entry, nullptr);
    EXPECT_TRUE(mutex_entry->external_baseline);
    EXPECT_FALSE(mutex_entry->core_lineup);
    EXPECT_NE(mutex_entry->runner_for("lockedset"), nullptr);
    EXPECT_NE(mutex_entry->runner_for("lockedqueue"), nullptr);
    EXPECT_EQ(mutex_entry->runner_for("hashmap"), nullptr);
  }

  // Bonsai excludes pointer-publication schemes; Harris's original list
  // additionally excludes every robust scheme (guard-lifetime pinning
  // only). The container family has no capability gate: every SMR scheme
  // carries both cells, tagged with the container structure-kind. The
  // external baseline registers none of the shared structures, so it is
  // skipped here.
  for (const auto& scheme : reg.schemes()) {
    if (scheme.external_baseline) continue;
    const bool snapshot_safe = !scheme.caps.pointer_publication;
    const bool epoch_style = snapshot_safe && !scheme.caps.robust;
    EXPECT_EQ(scheme.runner_for("bonsai") != nullptr, snapshot_safe)
        << scheme.name;
    EXPECT_EQ(scheme.runner_for("harris") != nullptr, epoch_style)
        << scheme.name;
    for (const char* structure : {"msqueue", "stack"}) {
      const auto* cell = scheme.cell_for(structure);
      ASSERT_NE(cell, nullptr) << scheme.name << " x " << structure;
      EXPECT_EQ(cell->kind, harness::structure_kind::container);
    }
    const auto* hashmap = scheme.cell_for("hashmap");
    ASSERT_NE(hashmap, nullptr) << scheme.name;
    EXPECT_EQ(hashmap->kind, harness::structure_kind::set);
  }

  EXPECT_EQ(reg.find("no-such-scheme"), nullptr);
  EXPECT_EQ(reg.runner("Hyaline", "no-such-structure"), nullptr);
}

}  // namespace
}  // namespace hyaline
