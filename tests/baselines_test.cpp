// Unit tests for the baseline SMR schemes: Leaky, EBR, HP, HE, IBR —
// through the v2 facade (transparent guards, RAII protection handles,
// typed retire).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "smr/domain.hpp"
#include "smr/ebr.hpp"
#include "smr/hazard_eras.hpp"
#include "smr/hazard_pointers.hpp"
#include "smr/hyaline.hpp"
#include "smr/hyaline1.hpp"
#include "smr/ibr.hpp"
#include "smr/leaky.hpp"

namespace hyaline::smr {
namespace {

// Compile-time: every scheme satisfies the v2 facade...
static_assert(Domain<leaky_domain>);
static_assert(Domain<ebr_domain>);
static_assert(Domain<hp_domain>);
static_assert(Domain<he_domain>);
static_assert(Domain<ibr_domain>);
static_assert(Domain<hyaline::domain>);
static_assert(Domain<hyaline::domain_dw>);
static_assert(Domain<hyaline::domain_llsc>);
static_assert(Domain<hyaline::domain_s>);
static_assert(Domain<hyaline::domain_1>);
static_assert(Domain<hyaline::domain_1s>);

// ...and the capability tags match the paper's taxonomy.
static_assert(!ebr_domain::caps.robust && !ebr_domain::caps.pointer_publication);
static_assert(hp_domain::caps.robust && hp_domain::caps.pointer_publication);
static_assert(he_domain::caps.robust && he_domain::caps.pointer_publication);
static_assert(ibr_domain::caps.robust && !ibr_domain::caps.pointer_publication);
static_assert(ibr_domain::caps.needs_clean_edges);
static_assert(hyaline::domain::caps.supports_trim &&
              !hyaline::domain::caps.robust);
static_assert(hyaline::domain_s::caps.robust &&
              hyaline::domain_s::caps.needs_clean_edges);
static_assert(hyaline::domain_1s::caps.robust);

// Finite hazard budgets only where pointers are published.
static_assert(max_hazards_v<hp_domain> == hp_domain::max_hazards);
static_assert(max_hazards_v<he_domain> == he_domain::max_hazards);
static_assert(max_hazards_v<ebr_domain> == ~0u);
static_assert(max_hazards_v<hyaline::domain> == ~0u);

template <class D>
typename D::node* make_node(D& dom) {
  auto* n = new typename D::node;
  dom.on_alloc(n);
  return n;
}

// ---------------------------------------------------------------- Leaky --

TEST(Leaky, NeverFreesDuringRun) {
  leaky_domain dom;
  {
    leaky_domain::guard g(dom);
    for (int i = 0; i < 100; ++i) g.retire(make_node(dom));
  }
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(dom.counters().unreclaimed(), 100u);
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 100u);
}

// ------------------------------------------------------------------ EBR --

TEST(Ebr, EpochAdvancesWhenQuiescent) {
  ebr_domain dom(ebr_config{.advance_freq = 1});
  const auto e0 = dom.debug_epoch();
  {
    ebr_domain::guard g(dom);
    for (int i = 0; i < 10; ++i) g.retire(make_node(dom));
  }
  EXPECT_GT(dom.debug_epoch(), e0);
}

TEST(Ebr, NodesFreeAfterTwoEpochs) {
  ebr_domain dom(ebr_config{.advance_freq = 1});
  {
    ebr_domain::guard g(dom);
    g.retire(make_node(dom));
    // Churn more retires so the epoch advances and reclamation triggers.
    for (int i = 0; i < 8; ++i) g.retire(make_node(dom));
  }
  {
    ebr_domain::guard g(dom);
    for (int i = 0; i < 8; ++i) g.retire(make_node(dom));
  }
  EXPECT_GT(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
}

TEST(Ebr, StalledReaderPinsTheEpoch) {
  ebr_domain dom(ebr_config{.advance_freq = 1});
  // Nested guards on one thread lease distinct tids, so the pinned guard
  // keeps its reservation while the churn loop enters and leaves.
  auto* pinned = new ebr_domain::guard(dom);  // enters and never leaves
  const auto e0 = dom.debug_epoch();
  // One retire per guard: a guard's own reservation would cap the epoch
  // at e0 + 1 as well, so only the pinned one may stop the advances.
  for (int i = 0; i < 50; ++i) {
    ebr_domain::guard g(dom);
    g.retire(make_node(dom));
  }
  EXPECT_LE(dom.debug_epoch(), e0 + 1)
      << "the stalled reservation must block advances past its epoch";
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "non-robust: nothing reclaims while a reader is stalled";
  delete pinned;
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
}

// ------------------------------------------------------------------- HP --

TEST(Hp, HazardProtectsNodeFromScan) {
  hp_domain dom(hp_config{.scan_threshold = 1});
  auto* victim = make_node(dom);
  std::atomic<hp_domain::node*> src{victim};

  hp_domain::guard reader(dom);
  auto h = reader.protect(src);
  EXPECT_EQ(h.get(), victim);
  {
    hp_domain::guard writer(dom);     // nested: its own tid and hazards
    src.store(nullptr, std::memory_order_release);
    writer.retire(victim);            // threshold 1: scan runs immediately
    for (int i = 0; i < 10; ++i) {    // more retires, more scans
      writer.retire(make_node(dom));
    }
  }
  EXPECT_LT(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed))
      << "the hazarded victim must survive every scan";
  // The handle dies; the hazard slot clears and the victim is reclaimable.
  h.reset();
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
}

TEST(Hp, ProtectReloadsUntilStable) {
  hp_domain dom(hp_config{.scan_threshold = 100});
  auto* a = make_node(dom);
  auto* b = make_node(dom);
  std::atomic<hp_domain::node*> src{a};
  hp_domain::guard g(dom);
  EXPECT_EQ(g.protect(src).get(), a);
  src.store(b, std::memory_order_release);
  EXPECT_EQ(g.protect(src).get(), b);
  delete a;
  delete b;
}

TEST(Hp, HandlesRecycleSlots) {
  // max_hazards slots support arbitrarily many sequential protections as
  // long as at most max_hazards handles are live at once.
  hp_domain dom(hp_config{.scan_threshold = 100});
  auto* n = make_node(dom);
  std::atomic<hp_domain::node*> src{n};
  hp_domain::guard g(dom);
  for (int round = 0; round < 4; ++round) {
    std::vector<hp_domain::protected_ptr<hp_domain::node>> held;
    for (unsigned i = 0; i < hp_domain::max_hazards; ++i) {
      held.push_back(g.protect(src));
      EXPECT_EQ(held.back().get(), n);
    }
  }  // all slots released; next round leases them again
  delete n;
}

TEST(Hp, ScanThresholdBoundsRetiredList) {
  hp_domain dom(hp_config{.scan_threshold = 8});
  {
    hp_domain::guard g(dom);
    for (int i = 0; i < 64; ++i) g.retire(make_node(dom));
  }
  // No hazards held: every scan frees the whole list.
  EXPECT_GE(dom.counters().freed.load(std::memory_order_relaxed), 56u);
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 64u);
}

// ------------------------------------------------------------------- HE --

TEST(He, BirthAndRetireErasBracketLifetimes) {
  he_domain dom(he_config{.era_freq = 1, .scan_threshold = 1});
  auto* victim = make_node(dom);
  std::atomic<he_domain::node*> src{victim};
  he_domain::guard reader(dom);
  auto h = reader.protect(src);
  EXPECT_EQ(h.get(), victim);
  {
    he_domain::guard writer(dom);
    writer.retire(victim);
    for (int i = 0; i < 10; ++i) writer.retire(make_node(dom));
  }
  EXPECT_LT(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed))
      << "reader's published era lies inside the victim's interval";
  h.reset();
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
}

TEST(He, OldReservationDoesNotPinNewNodes) {
  he_domain dom(he_config{.era_freq = 1, .scan_threshold = 4});
  auto* early = make_node(dom);
  std::atomic<he_domain::node*> src{early};
  he_domain::guard reader(dom);
  auto h = reader.protect(src);  // era reserved "early"
  std::uint64_t freed_before;
  {
    he_domain::guard writer(dom);
    // Nodes born after the reader's reservation are reclaimable.
    for (int i = 0; i < 32; ++i) writer.retire(make_node(dom));
    freed_before = dom.counters().freed.load(std::memory_order_relaxed);
  }
  EXPECT_GT(freed_before, 0u)
      << "robust: a parked era only pins its own interval";
  h.reset();
  delete early;
}

// ------------------------------------------------------------------ IBR --

TEST(Ibr, IntervalOverlapBlocksJustThatNode) {
  ibr_domain dom(ibr_config{.era_freq = 1, .scan_threshold = 1});
  auto* victim = make_node(dom);
  std::atomic<ibr_domain::node*> src{victim};
  ibr_domain::guard* reader = new ibr_domain::guard(dom);
  EXPECT_EQ(reader->protect(src).get(), victim);
  {
    ibr_domain::guard writer(dom);
    writer.retire(victim);
    for (int i = 0; i < 10; ++i) writer.retire(make_node(dom));
  }
  EXPECT_LT(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
  delete reader;  // reservation interval closes
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
}

TEST(Ibr, StalledReaderPinsOnlyItsInterval) {
  ibr_domain dom(ibr_config{.era_freq = 1, .scan_threshold = 4});
  auto* parked_guard = new ibr_domain::guard(dom);  // reserves [e, e]
  {
    ibr_domain::guard writer(dom);
    for (int i = 0; i < 64; ++i) writer.retire(make_node(dom));
  }
  EXPECT_GT(dom.counters().freed.load(std::memory_order_relaxed), 0u)
      << "nodes born after the parked interval must still reclaim";
  delete parked_guard;
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), dom.counters().retired.load(std::memory_order_relaxed));
}

TEST(Ibr, ProtectExtendsUpperBound) {
  ibr_domain dom(ibr_config{.era_freq = 1, .scan_threshold = 100});
  std::atomic<ibr_domain::node*> src{nullptr};
  ibr_domain::guard g(dom);
  std::vector<ibr_domain::node*> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(make_node(dom));  // era moves
  EXPECT_EQ(g.protect(src).get(), nullptr);  // must not loop forever
  for (auto* n : nodes) delete n;
}

// ----------------------------------------------- config validation -------

// Each cadence is a power of two, so the per-op test is a mask.
TEST(ConfigValidation, EbrAdvanceFreqMustBeAPowerOfTwo) {
  EXPECT_THROW(ebr_domain(ebr_config{.advance_freq = 48}),
               std::invalid_argument);
}

TEST(ConfigValidation, HeEraFreqMustBeAPowerOfTwo) {
  EXPECT_THROW(he_domain(he_config{.era_freq = 48}), std::invalid_argument);
}

TEST(ConfigValidation, IbrEraFreqMustBeAPowerOfTwo) {
  EXPECT_THROW(ibr_domain(ibr_config{.era_freq = 48}), std::invalid_argument);
}

// ---------------------------------------------------------- era cadence --

// The era clock of each domain ticks from the allocations a thread makes
// in that domain (its stats cell count), not in every domain of the type:
// two domains allocating alternately on one thread at era_freq 2, 1000
// allocations each, advance 500 times apiece.
template <class D>
class EraCadenceTest : public ::testing::Test {};

using EraClocked = ::testing::Types<ibr_domain, he_domain, hyaline::domain_s,
                                    hyaline::domain_1s>;
TYPED_TEST_SUITE(EraCadenceTest, EraClocked);

template <class D>
std::unique_ptr<D> with_era_freq(std::uint64_t freq) {
  if constexpr (std::is_same_v<D, ibr_domain>) {
    return std::make_unique<D>(ibr_config{.era_freq = freq});
  } else if constexpr (std::is_same_v<D, he_domain>) {
    return std::make_unique<D>(he_config{.era_freq = freq});
  } else if constexpr (std::is_same_v<D, hyaline::domain_s>) {
    return std::make_unique<D>(hyaline::config{.era_freq = freq});
  } else {
    return std::make_unique<D>(hyaline::config1{.era_freq = freq});
  }
}

TYPED_TEST(EraCadenceTest, EachDomainTicksFromItsOwnAllocations) {
  using D = TypeParam;
  const std::unique_ptr<D> a = with_era_freq<D>(2);
  const std::unique_ptr<D> b = with_era_freq<D>(2);
  for (int i = 0; i < 1000; ++i) {
    for (D* d : {a.get(), b.get()}) delete make_node(*d);
  }
  EXPECT_EQ(a->counters().snapshot().era_advances, 500u);
  EXPECT_EQ(b->counters().snapshot().era_advances, 500u);
}

// --------------------------------------------------------- record growth --

// No thread capacity: every nested guard claims a record of its own, and
// an epoch advance walks every claimed record. A reservation held in a
// record the registry grew for must pin the epoch like any other.
TEST(RecordGrowth, AReservationPastTheFirstSegmentPinsTheEpoch) {
  constexpr unsigned kFill = 2 * core::kFirstSegmentRecords;
  ebr_domain dom(ebr_config{.advance_freq = 1});
  ebr_domain::guard* pinned = nullptr;
  {
    // kFill nested guards claim records 0..kFill-1, so the next one lands
    // in the registry's third segment; then the fillers leave.
    std::vector<std::unique_ptr<ebr_domain::guard>> fillers;
    for (unsigned i = 0; i < kFill; ++i) {
      fillers.push_back(std::make_unique<ebr_domain::guard>(dom));
    }
    pinned = new ebr_domain::guard(dom);  // enters and never leaves
  }
  EXPECT_EQ(dom.counters().snapshot().tid_acquires, kFill + 1);
  const auto e0 = dom.debug_epoch();
  // One retire per guard (record 0, cached by its filler): without the
  // pinned reservation every retire would advance the epoch.
  for (int i = 0; i < 50; ++i) {
    ebr_domain::guard g(dom);
    g.retire(make_node(dom));
  }
  EXPECT_LE(dom.debug_epoch(), e0 + 1)
      << "an advance skipped the reservation in the grown segment";
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), 0u);
  delete pinned;
  dom.drain();
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed),
            dom.counters().retired.load(std::memory_order_relaxed));
}

// --------------------------------------------------- cross-scheme churn --

template <class D>
class BaselineChurnTest : public ::testing::Test {};

using Baselines =
    ::testing::Types<leaky_domain, ebr_domain, hp_domain, he_domain,
                     ibr_domain>;
TYPED_TEST_SUITE(BaselineChurnTest, Baselines);

TYPED_TEST(BaselineChurnTest, ConcurrentChurnReclaimsEverything) {
  constexpr unsigned kThreads = 4;
  constexpr int kOps = 10000;
  TypeParam dom;
  std::vector<std::thread> ts;
  std::atomic<typename TypeParam::node*> shared{nullptr};
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        typename TypeParam::guard g(dom);
        g.protect(shared);
        g.retire(make_node(dom));
      }
    });
  }
  for (auto& th : ts) th.join();
  dom.drain();
  EXPECT_EQ(dom.counters().retired.load(std::memory_order_relaxed), std::uint64_t{kThreads} * kOps);
  EXPECT_EQ(dom.counters().freed.load(std::memory_order_relaxed), std::uint64_t{kThreads} * kOps);
}

}  // namespace
}  // namespace hyaline::smr
