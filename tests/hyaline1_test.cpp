// Unit tests for Hyaline-1 / Hyaline-1S (Figure 4): single-word heads,
// wait-free enter/leave, insertion counting instead of Adjs, per-thread
// slots, and the 1S era handling.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "smr/hyaline1.hpp"

namespace hyaline {
namespace {

// Default era_freq here is effectively "never" so deterministic
// reclamation tests pin the era clock; era-specific tests pass a small
// freq explicitly. Guards lease their dedicated slot transparently
// (lowest free id first), so nested guards land in slots 0, 1, 2, ...
config1 cfg1(std::size_t batch_min = 1,
             std::uint64_t era_freq = std::uint64_t{1} << 30) {
  config1 c;
  c.batch_min = batch_min;
  c.era_freq = era_freq;
  return c;
}

/// Claim slots 0..n-1 with n nested guards on this thread, then leave
/// them all: from here on the domain has n slots, every one inactive, and
/// the next guard this thread takes lands in slot 0 again.
template <class D>
void claim_slots(D& dom, unsigned n) {
  std::vector<std::unique_ptr<typename D::guard>> guards;
  for (unsigned i = 0; i < n; ++i) {
    guards.push_back(std::make_unique<typename D::guard>(dom));
  }
}

template <class D>
typename D::node* make_node(D& dom) {
  auto* n = new typename D::node;
  dom.on_alloc(n);
  return n;
}

template <class D>
class Hyaline1Test : public ::testing::Test {};

using Variants = ::testing::Types<domain_1, domain_1s>;
TYPED_TEST_SUITE(Hyaline1Test, Variants);

TYPED_TEST(Hyaline1Test, EnterSetsAndLeaveClearsSlotBit) {
  TypeParam dom(cfg1());
  claim_slots(dom, 2);
  EXPECT_FALSE(dom.debug_slot_active(0));
  {
    typename TypeParam::guard g(dom);
    EXPECT_TRUE(dom.debug_slot_active(0));
    EXPECT_FALSE(dom.debug_slot_active(1));
  }
  EXPECT_FALSE(dom.debug_slot_active(0));
  EXPECT_EQ(dom.debug_slot_head(0), nullptr);
}

TYPED_TEST(Hyaline1Test, BatchSizeIsSlotsPlusOne) {
  TypeParam dom(cfg1());
  claim_slots(dom, 4);
  EXPECT_EQ(dom.slot_count(), 4u);
  EXPECT_EQ(dom.batch_size(), 5u);
  // Past the registry's first segment: the slot count and the batch
  // follow the claims.
  claim_slots(dom, 6);
  EXPECT_EQ(dom.slot_count(), 6u);
  EXPECT_EQ(dom.batch_size(), 7u);
}

TYPED_TEST(Hyaline1Test, SoleOwnerFreesOnLeave) {
  TypeParam dom(cfg1());
  claim_slots(dom, 2);  // batches of 3; slot 1 stays inactive
  {
    typename TypeParam::guard g(dom);
    if constexpr (std::is_same_v<TypeParam, domain_1s>) {
      // 1S: freshen our slot era so the batch is not skipped (a skipped
      // slot frees even earlier, which is also correct but less
      // interesting here).
      std::atomic<typename TypeParam::node*> src{nullptr};
      g.protect(src);
    }
    for (int i = 0; i < 3; ++i) g.retire(make_node(dom));
    EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u);
}

TYPED_TEST(Hyaline1Test, EachOwnerMustReleaseItsSlotList) {
  // One OS thread may hold guards for *different* slots; the batch is
  // inserted into every active slot and freed only when the last slot
  // owner leaves (NRef == Inserts).
  TypeParam dom(cfg1());
  std::atomic<typename TypeParam::node*> src{nullptr};
  auto* g0 = new typename TypeParam::guard(dom);
  auto* g1 = new typename TypeParam::guard(dom);
  if constexpr (std::is_same_v<TypeParam, domain_1s>) {
    g0->protect(src);
    g1->protect(src);
  }
  for (int i = 0; i < 3; ++i) g0->retire(make_node(dom));
  delete g0;
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "slot 1's owner still references the batch";
  delete g1;
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u);
}

TYPED_TEST(Hyaline1Test, InactiveSlotsAreSkipped) {
  TypeParam dom(cfg1());
  claim_slots(dom, 8);  // batches of 9; slots 1..7 stay inactive
  {
    typename TypeParam::guard g(dom);
    if constexpr (std::is_same_v<TypeParam, domain_1s>) {
      std::atomic<typename TypeParam::node*> src{nullptr};
      g.protect(src);
    }
    for (int i = 0; i < 9; ++i) g.retire(make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 9u);
}

TYPED_TEST(Hyaline1Test, FlushPadsWithDummies) {
  TypeParam dom(cfg1());
  claim_slots(dom, 2);
  {
    typename TypeParam::guard g(dom);
    g.retire(make_node(dom));
    dom.flush();
  }
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 1u);
}

TYPED_TEST(Hyaline1Test, TrimReclaimsOlderBatches) {
  TypeParam dom(cfg1());
  claim_slots(dom, 2);  // batches of 3
  typename TypeParam::guard g(dom);
  if constexpr (std::is_same_v<TypeParam, domain_1s>) {
    std::atomic<typename TypeParam::node*> src{nullptr};
    g.protect(src);
  }
  for (int i = 0; i < 3; ++i) g.retire(make_node(dom));  // batch 1
  for (int i = 0; i < 3; ++i) g.retire(make_node(dom));  // batch 2 (head)
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  g.trim();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u) << "batch 1 reclaimed by trim";
  g.trim();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u) << "trim is idempotent here";
}

TYPED_TEST(Hyaline1Test, ConcurrentChurnReclaimsEverything) {
  constexpr int kThreads = 4, kOps = 10000;
  TypeParam dom(cfg1(8));
  std::vector<std::thread> ts;
  std::atomic<typename TypeParam::node*> shared{nullptr};
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        typename TypeParam::guard g(dom);
        g.protect(shared);
        g.retire(make_node(dom));
      }
      dom.flush();
    });
  }
  for (auto& th : ts) th.join();
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), std::uint64_t{kThreads} * kOps);
}

TEST(Hyaline1S, EraAdvancesAndSlotErasTrack) {
  domain_1s dom(cfg1(1, /*era_freq=*/4));
  const auto before = dom.debug_alloc_era();
  std::vector<domain_1s::node*> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(make_node(dom));
  EXPECT_EQ(dom.debug_alloc_era(), before + 2);
  {
    domain_1s::guard g(dom);
    std::atomic<domain_1s::node*> src{nodes[0]};
    g.protect(src);
    EXPECT_EQ(dom.debug_access_era(g.slot()), dom.debug_alloc_era());
  }
  for (auto* n : nodes) delete n;
}

TEST(Hyaline1S, RejectsNonPowerOfTwoEraFreq) {
  EXPECT_THROW(domain_1s{cfg1(1, 48)}, std::invalid_argument);
  // Non-robust Hyaline-1 ignores era_freq (no era clock to tick).
  EXPECT_NO_THROW(domain_1{cfg1(1, 48)});
}

TEST(Hyaline1S, StalledThreadWithStaleEraIsSkipped) {
  domain_1s dom(cfg1(1, 4));
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  std::thread parked([&] {
    domain_1s::guard g(dom);  // active but never dereferences
    ready.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    domain_1s::guard g(dom);
    for (int i = 0; i < 3; ++i) g.retire(make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u)
      << "fully robust: the stalled slot is skipped via its stale era";
  hold.store(false, std::memory_order_release);
  parked.join();
}

TEST(Hyaline1, EnterAfterLeaveReusesSlotSafely) {
  domain_1 dom(cfg1());
  for (int round = 0; round < 100; ++round) {
    domain_1::guard g(dom);
    g.retire(make_node(dom));
    g.retire(make_node(dom));
  }
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
}

}  // namespace
}  // namespace hyaline
