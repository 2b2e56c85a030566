// Container stress + accounting: every registered scheme × {msqueue,
// stack} through the type-erased container runners, under asymmetric
// producer/consumer splits (the shapes that stress each side: producers
// outnumbering consumers grows the structure and the retired backlog;
// consumers outnumbering producers spins on empty, hammering the
// protection path). After every cell the conservation ledger must close
// (enqueued == dequeued + drained), the domain must have freed everything
// it retired, and debug_alloc must see no leaked, double-freed, or
// corrupted node — the acceptance invariant of the container family,
// executed in all three CI jobs (ASan, UBSan, Release).
#include <gtest/gtest.h>

#include "common/debug_alloc.hpp"
#include "ds_test_common.hpp"
#include "harness/registry.hpp"

namespace hyaline {
namespace {

const bool hooks_installed = test_support::install_debug_alloc_hooks();

harness::workload_config container_workload(unsigned producers,
                                            unsigned consumers) {
  harness::workload_config cfg;
  cfg.producers = producers;
  cfg.consumers = consumers;
  cfg.threads = producers + consumers;
  cfg.duration_ms = 15;
  cfg.repeats = 1;
  cfg.prefill = 256;
  return cfg;
}

class ContainerStressTest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(ContainerStressTest, EveryContainerCellConserves) {
  ASSERT_TRUE(hooks_installed);
  debug_alloc::reset();

  const auto [producers, consumers] = GetParam();
  harness::scheme_params p;
  p.slots = 4;
  p.batch_min = 8;
  const harness::workload_config cfg =
      container_workload(producers, consumers);

  const auto& reg = harness::scheme_registry::instance();
  std::size_t cells = 0;
  for (const auto& scheme : reg.schemes()) {
    for (const auto& cell : scheme.cells) {
      if (cell.kind != harness::structure_kind::container) continue;
      SCOPED_TRACE(scheme.name + " x " + cell.structure);
      const harness::workload_result r = cell.run(p, cfg);
      ++cells;
      EXPECT_EQ(r.enqueued, r.dequeued + r.drained)
          << "conservation violated: pushed " << r.enqueued << ", popped "
          << r.dequeued << ", drained " << r.drained;
      EXPECT_GE(r.enqueued, cfg.prefill);
      EXPECT_EQ(r.retired, r.freed)
          << "scheme leaked retired nodes after drain";
      EXPECT_GE(r.unreclaimed_peak, static_cast<std::uint64_t>(
                                        r.unreclaimed_avg))
          << "peak below average: sampling is broken";
      EXPECT_EQ(debug_alloc::live_count(), 0u) << "leaked node allocations";
    }
  }
  // 12 SMR schemes x {msqueue, stack} + the Mutex baseline's lockedqueue.
  EXPECT_EQ(cells, 12u * 2u + 1u);
  EXPECT_EQ(debug_alloc::double_frees(), 0u) << "double free detected";
  EXPECT_EQ(debug_alloc::flush_quarantine(), 0u)
      << "write-after-free detected (poison corrupted)";
}

INSTANTIATE_TEST_SUITE_P(
    Splits, ContainerStressTest,
    ::testing::Values(std::pair<unsigned, unsigned>{3, 1},
                      std::pair<unsigned, unsigned>{1, 3},
                      std::pair<unsigned, unsigned>{2, 2}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "p" +
             std::to_string(info.param.second) + "c";
    });

}  // namespace
}  // namespace hyaline
