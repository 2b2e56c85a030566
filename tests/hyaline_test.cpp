// Unit tests for basic Hyaline (Figure 3): reference-count propagation,
// batch lifecycle, handle semantics, trimming, flushing, and the Adjs
// arithmetic — across all three head policies. A second typed suite pins
// the batch layer the whole family shares (core/hyaline_batch.hpp) on
// Hyaline, Hyaline-S, Hyaline-1 and Hyaline-1S.
//
// Many tests exploit a property of the algorithm: one OS thread may hold
// several nested guards on the same slot (Hyaline supports any number of
// "concurrent entities" per slot), which lets us stage the interleavings
// of Figure 2a deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "smr/hyaline.hpp"
#include "smr/hyaline1.hpp"

namespace hyaline {
namespace {

std::atomic<int> g_destroy_count{0};

TEST(Adjs, PaperValues) {
  // §3.2: Adjs = floor((2^64-1)/k) + 1; k = 1 -> 0 by overflow; k = 8 ->
  // 2^61; and k * Adjs == 0 mod 2^64 for any power-of-two k.
  EXPECT_EQ(detail::adjs_for(1), 0u);
  EXPECT_EQ(detail::adjs_for(2), std::uint64_t{1} << 63);
  EXPECT_EQ(detail::adjs_for(8), std::uint64_t{1} << 61);
  for (std::size_t k = 1; k <= 1024; k *= 2) {
    EXPECT_EQ(k * detail::adjs_for(k), 0u) << "k=" << k;
  }
}

template <class D>
class HyalineTest : public ::testing::Test {
 protected:
  static config small_cfg() {
    config c;
    c.slots = 2;
    c.batch_min = 1;  // batch size = k+1 = 3
    return c;
  }

  static config burst_cfg() {
    config c = small_cfg();
    c.entry_burst = 8;
    return c;
  }

  static std::uint64_t ref(D& dom, std::size_t slot) {
    return dom.debug_head(slot).ref;
  }

  static typename D::node* make_node(D& dom) {
    auto* n = new typename D::node;
    dom.on_alloc(n);
    return n;
  }
};

using HeadVariants = ::testing::Types<domain, domain_dw, domain_llsc>;
TYPED_TEST_SUITE(HyalineTest, HeadVariants);

TYPED_TEST(HyalineTest, EnterLeaveEmpty) {
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom, 0);
    EXPECT_EQ(dom.debug_head(g.slot()).ref, 1u);
  }
  EXPECT_EQ(dom.debug_head(0).ref, 0u);
  EXPECT_EQ(dom.debug_head(0).ptr, nullptr);
}

TYPED_TEST(HyalineTest, SlotHintIsModK) {
  TypeParam dom(this->small_cfg());
  typename TypeParam::guard g0(dom, 0), g1(dom, 1), g2(dom, 2);
  EXPECT_EQ(g0.slot(), 0u);
  EXPECT_EQ(g1.slot(), 1u);
  EXPECT_EQ(g2.slot(), 0u);  // 2 mod k(=2)
}

TYPED_TEST(HyalineTest, BatchFreedAfterSoleRetirerLeaves) {
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom, 0);
    for (int i = 0; i < 3; ++i) g.retire(this->make_node(dom));  // batch full
    EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 3u);
    EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
        << "we are still inside the critical section";
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u);
}

TYPED_TEST(HyalineTest, NestedGuardHoldsReclamation) {
  // The Figure 2a scenario staged with nested guards: the outer "thread"
  // entered before the batch was retired, so it must block reclamation
  // until it leaves.
  TypeParam dom(this->small_cfg());
  typename TypeParam::guard* outer = new typename TypeParam::guard(dom, 0);
  {
    typename TypeParam::guard inner(dom, 0);
    for (int i = 0; i < 3; ++i) inner.retire(this->make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "outer guard still references the batch";
  delete outer;  // last reference: the leaver deallocates (asynchronous
                 // tracking — no one had to "check" anything)
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u);
}

TYPED_TEST(HyalineTest, LateEnterDoesNotBlockOlderBatch) {
  // A thread entering *after* retirement gets a handle at the new head and
  // never references the already-covered batch... but because it is in the
  // same slot, it appears in HRef at displacement time; the algorithm
  // accounts for it via the handle-inclusive traversal. Behaviorally: the
  // batch frees as soon as the pre-existing guards leave, regardless of
  // how many new guards arrived afterwards.
  TypeParam dom(this->small_cfg());
  auto* g1 = new typename TypeParam::guard(dom, 0);
  for (int i = 0; i < 3; ++i) g1->retire(this->make_node(dom));
  auto* g2 = new typename TypeParam::guard(dom, 0);  // enters after retire
  delete g1;
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "g2's handle-inclusive traversal still owes one reference";
  delete g2;
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u);
}

TYPED_TEST(HyalineTest, FlushPadsPartialBatchWithDummies) {
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom, 0);
    g.retire(this->make_node(dom));  // 1 < batch size 3
    EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
    dom.flush();  // §2.4: finalize immediately by allocating dummy nodes
  }
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 1u) << "dummies are not counted";
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 1u);
}

TYPED_TEST(HyalineTest, DrainReclaimsForeignBuilders) {
  TypeParam dom(this->small_cfg());
  std::thread t([&] {
    typename TypeParam::guard g(dom, 1);
    g.retire(this->make_node(dom));
    // exits without flushing — fully "off the hook"
  });
  t.join();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 1u);
}

TYPED_TEST(HyalineTest, TrimReclaimsOlderBatches) {
  // §3.3: trim dereferences previously retired nodes without leaving.
  TypeParam dom(this->small_cfg());
  typename TypeParam::guard g(dom, 0);
  typename TypeParam::guard g1(dom, 1);  // keep slot 1 active too
  for (int i = 0; i < 3; ++i) g.retire(this->make_node(dom));  // batch 1
  for (int i = 0; i < 3; ++i) g.retire(this->make_node(dom));  // batch 2
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  g.trim();
  g1.trim();
  // Batch 1 was displaced by batch 2 in both slots and both active guards
  // trimmed past it: it must be reclaimed. Batch 2 is still each slot's
  // head (trim skips the first node), so it stays.
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u);
}

TYPED_TEST(HyalineTest, TrimThenLeaveReclaimsEverything) {
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom, 0);
    for (int i = 0; i < 9; ++i) g.retire(this->make_node(dom));
    g.trim();
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 9u);
}

TYPED_TEST(HyalineTest, StatsCountAllocations) {
  TypeParam dom(this->small_cfg());
  typename TypeParam::guard g(dom, 0);
  for (int i = 0; i < 5; ++i) g.retire(this->make_node(dom));
  EXPECT_EQ(dom.counters().allocated.load(std::memory_order_relaxed), 5u);
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 5u);
}

TYPED_TEST(HyalineTest, EmptySlotsAccumulateEmptyAdjustment) {
  // Retire with only our own slot active: the other slot contributes
  // Adjs via the Empty path (REF #3), and the batch still frees exactly
  // once we leave.
  config c;
  c.slots = 4;  // three of four slots always empty
  c.batch_min = 1;
  TypeParam dom(c);
  {
    typename TypeParam::guard g(dom, 2);
    for (int i = 0; i < 5; ++i) g.retire(this->make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 5u);
}

TYPED_TEST(HyalineTest, ManyBatchesInterleavedGuards) {
  TypeParam dom(this->small_cfg());
  std::vector<typename TypeParam::guard*> guards;
  for (int i = 0; i < 8; ++i) guards.push_back(
      new typename TypeParam::guard(dom, i));
  {
    typename TypeParam::guard g(dom, 0);
    for (int i = 0; i < 30; ++i) g.retire(this->make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  for (auto* g : guards) delete g;
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 30u);
}

TYPED_TEST(HyalineTest, ConcurrentChurnReclaimsEverything) {
  config c;
  c.slots = 4;
  c.batch_min = 8;
  TypeParam dom(c);
  constexpr int kThreads = 4, kOps = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        typename TypeParam::guard g(dom, t + i);
        g.retire(this->make_node(dom));
      }
      dom.flush();
    });
  }
  for (auto& th : ts) th.join();
  dom.drain();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed),
            std::uint64_t{kThreads} * kOps);
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), std::uint64_t{kThreads} * kOps);
}

TYPED_TEST(HyalineTest, TypedRetireRunsEachTypesDestructor) {
  // API v2: retire<T> captures T's deleter per node, so one domain can
  // reclaim a mix of node types — and each gets its own destructor.
  struct counting_node : TypeParam::node {
    ~counting_node() { g_destroy_count.fetch_add(1, std::memory_order_relaxed); }
  };
  struct other_node : TypeParam::node {
    ~other_node() { g_destroy_count.fetch_add(100, std::memory_order_relaxed); }
  };
  g_destroy_count.store(0, std::memory_order_relaxed);
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom, 0);
    for (int i = 0; i < 3; ++i) {
      auto* n = new counting_node;
      dom.on_alloc(n);
      g.retire(n);
    }
    auto* o = new other_node;
    dom.on_alloc(o);
    g.retire(o);
    for (int i = 0; i < 2; ++i) g.retire(this->make_node(dom));  // plain
  }
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 6u);
  EXPECT_EQ(g_destroy_count.load(std::memory_order_relaxed), 103) << "3 counting + 1 other node";
}

TYPED_TEST(HyalineTest, TransparentGuardNeedsNoHint) {
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom);  // slot chosen from the thread hint
    EXPECT_LT(g.slot(), dom.slot_count());
    for (int i = 0; i < 3; ++i) g.retire(this->make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u);
}

// Burst entry (config::entry_burst): the transparent guard keeps the
// thread's slot presence between guards while the slot's list is empty.

TYPED_TEST(HyalineTest, BurstPresenceParksBetweenGuardsAndExpires) {
  TypeParam dom(this->burst_cfg());
  std::size_t slot = 0;
  {
    typename TypeParam::guard g(dom);
    slot = g.slot();
  }
  EXPECT_EQ(this->ref(dom, slot), 1u) << "the first guard parked";
  for (int i = 2; i < 8; ++i) {
    {
      typename TypeParam::guard g(dom);
      EXPECT_EQ(g.slot(), slot) << "guard " << i << " adopts the presence";
      EXPECT_EQ(this->ref(dom, slot), 1u) << "no second FAA";
    }
    EXPECT_EQ(this->ref(dom, slot), 1u) << "guard " << i << " parked";
  }
  { typename TypeParam::guard g(dom); }
  EXPECT_EQ(this->ref(dom, slot), 0u) << "the 8th guard ends the burst";
  { typename TypeParam::guard g(dom); }
  EXPECT_EQ(this->ref(dom, slot), 1u) << "a new burst starts";
  dom.quiesce();
  EXPECT_EQ(this->ref(dom, slot), 0u) << "quiesce() leaves the presence";
  EXPECT_EQ(dom.debug_head(slot).ptr, nullptr);
}

TYPED_TEST(HyalineTest, ParkedSlotReleasesForeignBatchAtNextGuardExit) {
  TypeParam dom(this->burst_cfg());
  std::size_t slot = 0;
  {
    typename TypeParam::guard g(dom);
    slot = g.slot();
  }
  std::thread retirer([&] {
    {
      typename TypeParam::guard g(dom, static_cast<unsigned>(slot + 1));
      for (int i = 0; i < 2; ++i) g.retire(this->make_node(dom));
    }
    dom.flush();  // the only occupied slot is the parked one
  });
  retirer.join();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 2u);
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "the parked presence pins the batch that arrived";
  {
    typename TypeParam::guard g(dom);
    EXPECT_EQ(g.slot(), slot);
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 2u)
      << "a non-empty list makes the next exit leave, and the leaver frees";
  EXPECT_EQ(this->ref(dom, slot), 0u);
}

TYPED_TEST(HyalineTest, NestedGuardInsideBurstGuardEntersAndLeaves) {
  TypeParam dom(this->burst_cfg());
  std::size_t slot = 0;
  {
    typename TypeParam::guard outer(dom);
    slot = outer.slot();
    {
      typename TypeParam::guard inner(dom);
      EXPECT_EQ(inner.slot(), slot);
      EXPECT_EQ(this->ref(dom, slot), 2u) << "the inner guard entered";
    }
    EXPECT_EQ(this->ref(dom, slot), 1u) << "the inner guard left";
  }
  EXPECT_EQ(this->ref(dom, slot), 1u) << "the outer guard parked";
  dom.quiesce();
  EXPECT_EQ(this->ref(dom, slot), 0u);
}

TYPED_TEST(HyalineTest, DrainLeavesPresenceOfExitedThread) {
  TypeParam dom(this->burst_cfg());
  std::size_t slot = 0;
  std::thread t([&] {
    typename TypeParam::guard g(dom);
    slot = g.slot();
    g.retire(this->make_node(dom));  // a partial batch: the list stays empty
  });  // exits without flush() or quiesce()
  t.join();
  EXPECT_EQ(this->ref(dom, slot), 1u) << "the exited thread's presence";
  dom.drain();
  EXPECT_EQ(this->ref(dom, slot), 0u);
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 1u);
}

TYPED_TEST(HyalineTest, ExitedThreadsParkedPresencePassesToTheNextThread) {
  TypeParam dom(this->burst_cfg());
  { typename TypeParam::guard mine(dom, 0); }  // this thread's builder
  std::size_t slot = 0;
  std::thread([&] {
    typename TypeParam::guard g(dom);
    slot = g.slot();
  }).join();  // parks, then exits without quiesce()
  EXPECT_EQ(this->ref(dom, slot), 1u) << "the exited thread's presence";
  {
    typename TypeParam::guard g(dom, static_cast<unsigned>(slot + 1));
    for (int i = 0; i < 2; ++i) g.retire(this->make_node(dom));
  }
  dom.flush();  // the only occupied slot is the parked one
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "the parked presence pins the batch that arrived";
  std::thread([&] {
    typename TypeParam::guard g(dom);
    EXPECT_EQ(g.slot(), slot) << "the first guard adopts the presence";
  }).join();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 2u)
      << "its exit leaves and frees the batch, before any drain()";
  EXPECT_EQ(this->ref(dom, slot), 0u);
}

// The shared batch layer, through each of its four users' transparent
// guards. A batch is k + 1 nodes long: k = 2 for Hyaline and Hyaline-S;
// for Hyaline-1 and Hyaline-1S, k is the slots their guards claimed (one
// in each case here).

template <class D>
class HyalineBatchTest : public ::testing::Test {
 protected:
  static auto small_cfg() {
    if constexpr (std::is_constructible_v<D, config1>) {
      config1 c;
      c.batch_min = 1;
      return c;
    } else {
      config c;
      c.slots = 2;
      c.batch_min = 1;
      return c;
    }
  }

  static typename D::node* make_node(D& dom) {
    auto* n = new typename D::node;
    dom.on_alloc(n);
    return n;
  }

  static std::uint64_t freed(const D& dom) {
    return dom.counters().freed.load(std::memory_order_relaxed);
  }
};

using BatchUsers = ::testing::Types<domain, domain_s, domain_1, domain_1s>;
TYPED_TEST_SUITE(HyalineBatchTest, BatchUsers);

TYPED_TEST(HyalineBatchTest, MixedTypeRetireRunsEachDestructorOnce) {
  struct counting_node : TypeParam::node {
    ~counting_node() { g_destroy_count.fetch_add(1, std::memory_order_relaxed); }
  };
  struct other_node : TypeParam::node {
    ~other_node() { g_destroy_count.fetch_add(100, std::memory_order_relaxed); }
  };
  g_destroy_count.store(0, std::memory_order_relaxed);
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom);
    for (int i = 0; i < 3; ++i) {  // one full batch of counting nodes
      auto* n = new counting_node;
      dom.on_alloc(n);
      g.retire(n);
    }
    auto* o = new other_node;
    dom.on_alloc(o);
    g.retire(o);
    g.retire(this->make_node(dom));  // a partial batch of mixed types
  }
  dom.drain();
  EXPECT_EQ(this->freed(dom), 5u);
  EXPECT_EQ(g_destroy_count.load(std::memory_order_relaxed), 103)
      << "3 counting nodes and 1 other node, each destroyed once";
}

TYPED_TEST(HyalineBatchTest, DrainReclaimsExitedThreadsUnflushedBatch) {
  TypeParam dom(this->small_cfg());
  std::thread t([&] {
    typename TypeParam::guard g(dom);
    g.retire(this->make_node(dom));
  });  // exits without flush()
  t.join();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(this->freed(dom), 0u) << "the batch is still being built";
  dom.drain();
  EXPECT_EQ(this->freed(dom), 1u);
}

TYPED_TEST(HyalineBatchTest, ExitedThreadsPartialBatchPassesToTheNextThread) {
  // Threads in turn each retire half a batch and exit without flush().
  // Each takes over the builder its predecessor handed back, so every
  // second one completes the batch, and its guard's exit frees it.
  constexpr unsigned kThreads = 8;
  TypeParam dom;  // batch_min 64
  const std::size_t half = dom.batch_size() / 2;
  for (unsigned t = 0; t < kThreads; ++t) {
    std::thread([&] {
      typename TypeParam::guard g(dom);
      for (std::size_t i = 0; i < half; ++i) g.retire(this->make_node(dom));
    }).join();
    EXPECT_LT(dom.counters().unreclaimed(), dom.batch_size())
        << "after thread " << t;
  }
  EXPECT_EQ(dom.debug_builder_count(), 1u)
      << "one builder per thread alive at once";
  dom.drain();
  EXPECT_EQ(dom.counters().unreclaimed(), 0u);
}

TYPED_TEST(HyalineBatchTest, FlushedOneNodeBatchCountsNoDummy) {
  TypeParam dom(this->small_cfg());
  {
    typename TypeParam::guard g(dom);
    g.retire(this->make_node(dom));
    dom.flush();  // seals 1 node + k padding dummies
    // The live guard holds the batch, unless it is robust: having
    // protected nothing, its slot's access era predates the node, so the
    // insertion skips the slot and frees the batch at once.
    EXPECT_EQ(this->freed(dom), TypeParam::caps.robust ? 1u : 0u);
  }
  const smr::stats_snapshot s = dom.counters().snapshot();
  EXPECT_EQ(s.allocated, 1u);
  EXPECT_EQ(s.retired, 1u);
  EXPECT_EQ(s.freed, 1u) << "the dummies are freed but not counted";
  EXPECT_EQ(s.finalizes, 1u);
}

TEST(HyalineConfig, RejectsNonPowerOfTwoSlots) {
  config c;
  c.slots = 3;
  EXPECT_THROW(domain{c}, std::invalid_argument);
}

TEST(HyalineConfig, RejectsMaxSlotsBelowSlots) {
  config c;
  c.slots = 8;
  c.max_slots = 4;
  EXPECT_THROW(domain_s{c}, std::invalid_argument);
  // Non-robust Hyaline ignores max_slots (no adaptive growth to cap).
  EXPECT_NO_THROW(domain{c});
}

TEST(HyalineConfig, RejectsNonPowerOfTwoEraFreq) {
  config c;
  c.era_freq = 48;
  EXPECT_THROW(domain_s{c}, std::invalid_argument);
  // Non-robust Hyaline ignores era_freq (no era clock to tick).
  EXPECT_NO_THROW(domain{c});
}

TYPED_TEST(HyalineTest, MultipleDomainsAreIsolated) {
  TypeParam a(this->small_cfg());
  TypeParam b(this->small_cfg());
  {
    typename TypeParam::guard ga(a, 0);
    typename TypeParam::guard gb(b, 0);
    for (int i = 0; i < 3; ++i) ga.retire(this->make_node(a));
  }
  EXPECT_EQ(a.counters().freed.load(std::memory_order_relaxed), 3u);
  EXPECT_EQ(b.counters().retired.load(std::memory_order_relaxed), 0u);
}

TEST(HyalineConfig, DefaultsArePowersOfTwo) {
  domain dom;  // default config
  EXPECT_GE(dom.slot_count(), 4u);
  EXPECT_TRUE((dom.slot_count() & (dom.slot_count() - 1)) == 0);
  EXPECT_EQ(dom.batch_size(),
            std::max<std::size_t>(64, dom.slot_count() + 1));
}

TEST(HyalineConfig, BatchSizeIsAtLeastKPlusOne) {
  config c;
  c.slots = 256;
  c.batch_min = 4;
  domain dom(c);
  EXPECT_EQ(dom.batch_size(), 257u);
}

}  // namespace
}  // namespace hyaline
