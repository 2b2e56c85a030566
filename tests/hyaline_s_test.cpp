// Unit tests for Hyaline-S (Figure 5) and the §4.3 adaptive resizing: the
// era clock, per-slot access eras (touch), the stale-slot skip in retire,
// Ack accounting, stalled-slot avoidance in enter, and directory growth.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "smr/hyaline.hpp"

namespace hyaline {
namespace {

config s_cfg(std::size_t slots, std::size_t max_slots = 0,
             std::uint64_t era_freq = 4, std::int64_t ack = 8192) {
  config c;
  c.slots = slots;
  c.max_slots = max_slots;
  c.batch_min = 1;  // batch size = k+1
  c.era_freq = era_freq;
  c.ack_threshold = ack;
  return c;
}

domain_s::node* make_node(domain_s& dom) {
  auto* n = new domain_s::node;
  dom.on_alloc(n);
  return n;
}

config burst_cfg() {
  config c = s_cfg(2);
  c.entry_burst = 8;
  return c;
}

std::uint64_t ref(domain_s& dom, std::size_t slot) {
  return dom.debug_head(slot).ref;
}

std::uint64_t freed(const domain_s& dom) {
  return dom.counters().freed.load(std::memory_order_relaxed);
}

TEST(HyalineS, EraClockAdvancesEveryFreqAllocations) {
  domain_s dom(s_cfg(2, 0, /*era_freq=*/4));
  const std::uint64_t before = dom.debug_alloc_era();
  std::vector<domain_s::node*> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(make_node(dom));
  EXPECT_EQ(dom.debug_alloc_era(), before + 2)
      << "one bump per era_freq allocations (Fig. 5 init_node)";
  for (auto* n : nodes) delete n;
}

TEST(HyalineS, ProtectUpdatesSlotAccessEra) {
  domain_s dom(s_cfg(2));
  std::vector<domain_s::node*> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(make_node(dom));  // era moves
  EXPECT_LT(dom.debug_access_era(0), dom.debug_alloc_era());
  {
    domain_s::guard g(dom, 0);
    std::atomic<domain_s::node*> src{nodes[0]};
    EXPECT_EQ(g.protect(src).get(), nodes[0]);
    EXPECT_EQ(dom.debug_access_era(0), dom.debug_alloc_era())
        << "deref must bring the slot era up to the clock";
    EXPECT_EQ(dom.debug_access_era(1), 0u) << "other slots untouched";
  }
  for (auto* n : nodes) delete n;
}

TEST(HyalineS, RetireSkipsSlotsWithStaleEras) {
  // The robustness mechanism: a thread that entered but never dereferenced
  // anything newer than the batch's min birth era cannot hold references,
  // so its slot is skipped and it does not delay reclamation.
  domain_s dom(s_cfg(2));
  std::atomic<bool> hold{true};
  std::atomic<bool> entered{false};
  std::thread parked([&] {
    domain_s::guard g(dom, 1);  // enters slot 1, derefs nothing
    entered.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();

  {
    domain_s::guard g(dom, 0);
    for (int i = 0; i < 3; ++i) g.retire(make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 3u)
      << "the parked thread's slot has a stale era and must be skipped";
  hold.store(false, std::memory_order_release);
  parked.join();
}

TEST(HyalineS, FreshEraSlotIsCoveredAndBlocksReclamation) {
  // Counterpart: if the parked thread *did* dereference a fresh node, its
  // slot is covered and reclamation must wait for it.
  domain_s dom(s_cfg(2));
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  auto* seen = make_node(dom);
  std::atomic<domain_s::node*> src{seen};
  std::thread parked([&] {
    domain_s::guard g(dom, 1);
    g.protect(src);  // slot 1 era becomes current
    ready.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  {
    domain_s::guard g(dom, 0);
    for (int i = 0; i < 3; ++i) g.retire(make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "slot 1 has a fresh era: the batch must wait for the thread";
  EXPECT_GT(dom.debug_ack(1), 0) << "Ack accumulated the HRef snapshot";
  hold.store(false, std::memory_order_release);
  parked.join();
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
  delete seen;
}

TEST(HyalineS, AckReflectsInsertionsAndTraversals) {
  domain_s dom(s_cfg(2));
  {
    domain_s::guard g(dom, 0);
    std::atomic<domain_s::node*> src{nullptr};
    g.protect(src);  // freshen our own slot era
    for (int i = 0; i < 3; ++i) g.retire(make_node(dom));  // batch 1
    EXPECT_EQ(dom.debug_ack(0), 1) << "+HRef (=1) on insertion";
    // Allocate batch 2 first, then deref (so our slot era covers the
    // batch's min birth era), then retire.
    domain_s::node* batch2[3];
    for (auto*& n : batch2) n = make_node(dom);
    g.protect(src);
    for (auto* n : batch2) g.retire(n);
    EXPECT_EQ(dom.debug_ack(0), 2);
  }
  // Our leave acknowledged both batches: batch 1 via traverse and the
  // head batch via the null-handle correction (see leave()), so the slot
  // does not accumulate Ack drift while it is healthy.
  EXPECT_EQ(dom.debug_ack(0), 0);
}

TEST(HyalineS, TrimWithNullHandleKeepsAckBalanced) {
  // A guard that entered an empty slot holds a Null handle. trim() owes
  // the same acknowledgments as leave(): one per batch that arrived, the
  // head batch included, though the walk skips the head.
  domain_s dom(s_cfg(2));
  domain_s::node* batch[3];  // k+1: one full batch
  for (auto*& n : batch) n = make_node(dom);
  auto* seen = make_node(dom);
  std::atomic<domain_s::node*> src{seen};
  {
    domain_s::guard g(dom, 0);
    g.protect(src);  // slot 0's era now covers the batch
    std::thread([&] {
      domain_s::guard r(dom, 1);
      for (auto* n : batch) r.retire(n);
    }).join();
    ASSERT_EQ(dom.debug_ack(0), 1) << "+HRef on insertion into slot 0";
    g.trim();
    EXPECT_EQ(dom.debug_ack(0), 0) << "trim acknowledged the head batch";
  }
  EXPECT_EQ(dom.debug_ack(0), 0) << "and the leave did not do it twice";
  EXPECT_EQ(dom.debug_ack(1), 0);
  EXPECT_EQ(freed(dom), 3u);
  delete seen;
}

TEST(HyalineS, EnterHopsPastAckedOutSlot) {
  domain_s dom(s_cfg(2, 0, 4, /*ack_threshold=*/1));
  // Stall slot 0 with a guard whose era is fresh, then retire enough to
  // push Ack[0] over the threshold.
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  auto* seen = new domain_s::node;
  dom.on_alloc(seen);
  std::atomic<domain_s::node*> src{seen};
  std::thread parked([&] {
    domain_s::guard g(dom, 0);
    g.protect(src);
    ready.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    domain_s::guard g(dom, 1);
    for (int i = 0; i < 3; ++i) g.retire(make_node(dom));
  }
  ASSERT_GT(dom.debug_ack(0), 0);
  {
    domain_s::guard g(dom, 0);  // wants slot 0, must hop to slot 1
    EXPECT_EQ(g.slot(), 1u);
  }
  hold.store(false, std::memory_order_release);
  parked.join();
  dom.drain();
  delete seen;
}

TEST(HyalineS, AdaptiveGrowthWhenAllSlotsStalled) {
  domain_s dom(s_cfg(1, /*max_slots=*/8, 4, /*ack_threshold=*/1));
  EXPECT_EQ(dom.slot_count(), 1u);
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  auto* seen = new domain_s::node;
  dom.on_alloc(seen);
  std::atomic<domain_s::node*> src{seen};
  std::thread parked([&] {
    domain_s::guard g(dom, 0);
    g.protect(src);
    ready.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    domain_s::guard g(dom, 0);
    for (int i = 0; i < 2; ++i) g.retire(make_node(dom));
  }
  ASSERT_GT(dom.debug_ack(0), 0);
  {
    domain_s::guard g(dom, 0);  // all k slots stalled -> directory grows
    EXPECT_GT(dom.slot_count(), 1u);
    EXPECT_GE(g.slot(), 1u) << "the new guard lands in a fresh slot";
  }
  hold.store(false, std::memory_order_release);
  parked.join();
  dom.drain();
  delete seen;
}

TEST(HyalineS, NoGrowthWithoutMaxSlots) {
  domain_s dom(s_cfg(1, /*max_slots=*/0, 4, /*ack_threshold=*/1));
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  auto* seen = new domain_s::node;
  dom.on_alloc(seen);
  std::atomic<domain_s::node*> src{seen};
  std::thread parked([&] {
    domain_s::guard g(dom, 0);
    g.protect(src);
    ready.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    domain_s::guard g(dom, 0);
    for (int i = 0; i < 2; ++i) g.retire(make_node(dom));
  }
  {
    domain_s::guard g(dom, 0);
    EXPECT_EQ(dom.slot_count(), 1u) << "capped variant degrades instead";
    EXPECT_EQ(g.slot(), 0u);
  }
  hold.store(false, std::memory_order_release);
  parked.join();
  dom.drain();
  delete seen;
}

TEST(HyalineS, StalledThreadDoesNotStopActiveReclamation) {
  // End-to-end robustness: one thread stalls inside its critical section
  // (with a fresh era), another churns retire-heavy work. Unreclaimed
  // memory must stay bounded (Theorem 4) instead of growing linearly.
  domain_s dom(s_cfg(4, 0, 16));
  std::atomic<bool> hold{true};
  std::atomic<bool> ready{false};
  auto* seen = new domain_s::node;
  dom.on_alloc(seen);
  std::atomic<domain_s::node*> src{seen};
  std::thread stalled([&] {
    domain_s::guard g(dom, 1);
    g.protect(src);
    ready.store(true, std::memory_order_release);
    while (hold.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!ready.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    domain_s::guard g(dom, 0);
    g.retire(make_node(dom));
  }
  dom.flush();
  const auto unreclaimed = dom.counters().unreclaimed();
  EXPECT_LT(unreclaimed, static_cast<std::uint64_t>(kOps) / 4)
      << "reclamation must keep pace despite the stalled thread";
  hold.store(false, std::memory_order_release);
  stalled.join();
  dom.drain();
  delete seen;
}

// Burst entry (config::entry_burst) over the robust variant: the same
// presence lifecycle as basic Hyaline, and the Acks stay balanced.

TEST(HyalineS, BurstPresenceParksBetweenGuardsAndExpires) {
  domain_s dom(burst_cfg());
  std::size_t slot = 0;
  {
    domain_s::guard g(dom);
    slot = g.slot();
  }
  EXPECT_EQ(ref(dom, slot), 1u) << "the first guard parked";
  for (int i = 2; i < 8; ++i) {
    {
      domain_s::guard g(dom);
      EXPECT_EQ(g.slot(), slot) << "guard " << i << " adopts the presence";
      EXPECT_EQ(ref(dom, slot), 1u) << "no second FAA";
    }
    EXPECT_EQ(ref(dom, slot), 1u) << "guard " << i << " parked";
  }
  { domain_s::guard g(dom); }
  EXPECT_EQ(ref(dom, slot), 0u) << "the 8th guard ends the burst";
  { domain_s::guard g(dom); }
  EXPECT_EQ(ref(dom, slot), 1u) << "a new burst starts";
  dom.quiesce();
  EXPECT_EQ(ref(dom, slot), 0u) << "quiesce() leaves the presence";
  EXPECT_EQ(dom.debug_ack(slot), 0);
}

TEST(HyalineS, ParkedSlotReleasesForeignBatchAtNextGuardExit) {
  domain_s dom(burst_cfg());
  domain_s::node* batch[2];
  for (auto*& n : batch) n = make_node(dom);
  auto* seen = make_node(dom);
  std::atomic<domain_s::node*> src{seen};
  std::size_t slot = 0;
  {
    domain_s::guard g(dom);
    slot = g.slot();
    g.protect(src);  // the parked slot's era covers the batch
  }
  std::thread retirer([&] {
    {
      domain_s::guard g(dom, static_cast<unsigned>(slot + 1));
      for (auto* n : batch) g.retire(n);
    }
    dom.flush();  // the only occupied slot is the parked one
  });
  retirer.join();
  EXPECT_EQ(freed(dom), 0u) << "the parked presence pins the batch";
  EXPECT_EQ(dom.debug_ack(slot), 1) << "+HRef on insertion";
  {
    domain_s::guard g(dom);
    EXPECT_EQ(g.slot(), slot);
  }
  EXPECT_EQ(freed(dom), 2u) << "the next exit leaves and frees";
  EXPECT_EQ(ref(dom, slot), 0u);
  EXPECT_EQ(dom.debug_ack(slot), 0);
  delete seen;
}

TEST(HyalineS, NestedGuardInsideBurstGuardEntersAndLeaves) {
  domain_s dom(burst_cfg());
  std::size_t slot = 0;
  {
    domain_s::guard outer(dom);
    slot = outer.slot();
    {
      domain_s::guard inner(dom);
      EXPECT_EQ(inner.slot(), slot);
      EXPECT_EQ(ref(dom, slot), 2u) << "the inner guard entered";
    }
    EXPECT_EQ(ref(dom, slot), 1u) << "the inner guard left";
  }
  EXPECT_EQ(ref(dom, slot), 1u) << "the outer guard parked";
  dom.quiesce();
  EXPECT_EQ(ref(dom, slot), 0u);
  EXPECT_EQ(dom.debug_ack(slot), 0);
}

TEST(HyalineS, DrainLeavesPresenceOfExitedThread) {
  domain_s dom(burst_cfg());
  std::size_t slot = 0;
  std::thread t([&] {
    domain_s::guard g(dom);
    slot = g.slot();
    g.retire(make_node(dom));  // a partial batch: the list stays empty
  });  // exits without flush() or quiesce()
  t.join();
  EXPECT_EQ(ref(dom, slot), 1u) << "the exited thread's presence";
  dom.drain();
  EXPECT_EQ(ref(dom, slot), 0u);
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(freed(dom), 1u);
  EXPECT_EQ(dom.debug_ack(slot), 0);
}

TEST(HyalineS, ExitedThreadsParkedPresencePassesToTheNextThread) {
  domain_s dom(burst_cfg());
  { domain_s::guard mine(dom, 0); }  // this thread's builder
  domain_s::node* batch[2];
  for (auto*& n : batch) n = make_node(dom);
  auto* seen = make_node(dom);
  std::atomic<domain_s::node*> src{seen};
  std::size_t slot = 0;
  std::thread([&] {
    domain_s::guard g(dom);
    slot = g.slot();
    g.protect(src);  // the parked slot's era covers the batch
  }).join();  // parks, then exits without quiesce()
  {
    domain_s::guard g(dom, static_cast<unsigned>(slot + 1));
    for (auto* n : batch) g.retire(n);
  }
  dom.flush();  // the only occupied slot is the parked one
  EXPECT_EQ(freed(dom), 0u) << "the parked presence pins the batch";
  std::thread([&] {
    domain_s::guard g(dom);
    EXPECT_EQ(g.slot(), slot) << "the first guard adopts the presence";
  }).join();
  EXPECT_EQ(freed(dom), 2u) << "its exit leaves and frees, before drain()";
  EXPECT_EQ(ref(dom, slot), 0u);
  EXPECT_EQ(dom.debug_ack(slot), 0);
  delete seen;
}

TEST(HyalineS, ConcurrentChurnWithDerefs) {
  domain_s dom(s_cfg(4, 64, 8));
  constexpr int kThreads = 4, kOps = 5000;
  std::atomic<domain_s::node*> shared{nullptr};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        domain_s::guard g(dom, t);
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

}  // namespace
}  // namespace hyaline
