// Unit tests for the shared SMR building blocks in src/smr/core/ that the
// baseline schemes are composed from.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "smr/core/era_clock.hpp"
#include "smr/core/retired_batch.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr::core {
namespace {

struct test_node {
  test_node* next = nullptr;
  std::uint64_t stamp = 0;
};

std::vector<test_node> make_nodes(std::size_t n) {
  return std::vector<test_node>(n);
}

// -------------------------------------------------------- retired_list --

TEST(RetiredList, PushSignalsAtThreshold) {
  retired_list<test_node> rl;
  auto nodes = make_nodes(8);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(rl.push(&nodes[i], 4));
  EXPECT_TRUE(rl.push(&nodes[3], 4));
  EXPECT_EQ(rl.size(), 4u);
}

TEST(RetiredList, ScanPartitionsAndRearmIsGeometric) {
  retired_list<test_node> rl;
  auto nodes = make_nodes(8);
  for (auto& n : nodes) rl.push(&n, 100);
  // Keep even-indexed stamps, free odd ones.
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i].stamp = i;
  std::size_t freed = 0;
  rl.scan([](const test_node* n) { return n->stamp % 2 == 1; },
          [&freed](test_node*) { ++freed; });
  EXPECT_EQ(freed, 4u);
  EXPECT_EQ(rl.size(), 4u);
  // After rearm the next scan trigger is 2*kept + threshold pushes away.
  rl.rearm(10);
  auto more = make_nodes(32);
  std::size_t pushes_until_signal = 0;
  for (auto& n : more) {
    ++pushes_until_signal;
    if (rl.push(&n, 10)) break;
  }
  EXPECT_EQ(rl.size(), 4 + pushes_until_signal);
  EXPECT_EQ(rl.size(), 2u * 4u + 10u);  // the rearmed scan point
}

TEST(RetiredList, ScanFreesEverythingWhenUnpinned) {
  retired_list<test_node> rl;
  auto nodes = make_nodes(16);
  for (auto& n : nodes) rl.push(&n, 100);
  std::size_t freed = 0;
  rl.scan([](const test_node*) { return true; },
          [&freed](test_node*) { ++freed; });
  EXPECT_EQ(freed, 16u);
  EXPECT_TRUE(rl.empty());
}

// --------------------------------------------------------- limbo_queue --

TEST(LimboQueue, ReclaimsInFifoOrderWhileReady) {
  limbo_queue<test_node> q;
  auto nodes = make_nodes(6);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].stamp = i;  // monotone "retire epoch"
    q.push_back(&nodes[i]);
  }
  std::vector<std::uint64_t> freed;
  q.reclaim_ready([](const test_node* n) { return n->stamp < 3; },
                  [&freed](test_node* n) { freed.push_back(n->stamp); });
  EXPECT_EQ(freed, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_FALSE(q.empty());
  q.reclaim_ready([](const test_node*) { return true; },
                  [&freed](test_node* n) { freed.push_back(n->stamp); });
  EXPECT_EQ(freed.size(), 6u);
  EXPECT_TRUE(q.empty());
  // Queue must be reusable after full reclamation (tail reset).
  q.push_back(&nodes[0]);
  EXPECT_FALSE(q.empty());
}

// -------------------------------------------------------- treiber_stack --

TEST(TreiberStack, TakeAllDetachesEverything) {
  treiber_stack<test_node> st;
  auto nodes = make_nodes(4);
  for (auto& n : nodes) st.push(&n);
  std::size_t count = 0;
  for (test_node* n = st.take_all(); n != nullptr; n = n->next) ++count;
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(st.take_all(), nullptr);
}

// ------------------------------------------------------------ era_clock --

TEST(EraClock, TickAdvancesEveryFreq) {
  era_clock clock(1);
  std::uint64_t counter = 0;
  for (int i = 0; i < 10; ++i) clock.tick(counter, 4);
  EXPECT_EQ(clock.load(std::memory_order_relaxed), 1u + 10 / 4);
}

TEST(EraClock, TryAdvanceIsConditional) {
  era_clock clock(2);
  EXPECT_FALSE(clock.try_advance(1));  // stale observation
  EXPECT_EQ(clock.load(std::memory_order_relaxed), 2u);
  EXPECT_TRUE(clock.try_advance(2));
  EXPECT_EQ(clock.load(std::memory_order_relaxed), 3u);
}

TEST(EraClock, ProtectWithEraRereadsUntilStable) {
  era_clock clock(1);
  test_node a, b;
  std::atomic<test_node*> src{&a};
  std::uint64_t published = 0;  // stale reservation forces one publish
  unsigned publishes = 0;
  test_node* got = protect_with_era(src, clock, published,
                                    [&](std::uint64_t e) {
                                      ++publishes;
                                      // Swap the source mid-loop once, like
                                      // a concurrent writer would.
                                      if (publishes == 1) src.store(&b, std::memory_order_release);
                                      return e;
                                    });
  EXPECT_EQ(got, &b);
  EXPECT_EQ(publishes, 1u);
}

// ------------------------------------------------------ thread_registry --

TEST(ThreadRegistry, IndexesAndIterates) {
  struct rec {
    int value = 7;
  };
  thread_registry<rec> recs(5);
  EXPECT_EQ(recs.size(), 5u);
  for (const rec& r : recs) EXPECT_EQ(r.value, 7);
  recs[3].value = 42;
  EXPECT_EQ(recs[3].value, 42);
  EXPECT_EQ(recs.pool()->capacity(), 5u);
}

// ------------------------------------------------------------ tid leases --

TEST(TidLease, NestedLeasesGetDistinctIdsAndCacheForReuse) {
  auto pool = std::make_shared<tid_pool>(3);
  {
    tid_lease a(pool);
    EXPECT_EQ(a.tid(), 0u) << "lowest free id first";
    {
      tid_lease b(pool);
      EXPECT_EQ(b.tid(), 1u) << "nested lease checks out a second id";
    }
    tid_lease c(pool);
    EXPECT_EQ(c.tid(), 1u) << "checked-in id is cached for instant reuse";
  }
  tid_lease d(pool);
  EXPECT_EQ(d.tid(), 0u);
}

TEST(TidLease, ExhaustionThrows) {
  auto pool = std::make_shared<tid_pool>(2);
  tid_lease a(pool);
  tid_lease b(pool);
  EXPECT_THROW(tid_lease c(pool), std::runtime_error);
}

TEST(TidLease, ThreadExitReturnsCachedIdsToThePool) {
  auto pool = std::make_shared<tid_pool>(1);
  std::thread t([&] { tid_lease a(pool); });
  t.join();
  // The worker's cached lease was released at thread exit, so the sole id
  // is available again here.
  tid_lease mine(pool);
  EXPECT_EQ(mine.tid(), 0u);
}

TEST(TidLease, ChurnOfShortLivedThreadsNeverExhaustsThePool) {
  // The recycling contract under sustained churn: each short-lived thread
  // caches its lease until exit, exit returns it, and the next spawn can
  // lease again — forever. A single missed release would exhaust this
  // 4-slot pool within the first handful of the 128 rounds and throw.
  auto pool = std::make_shared<tid_pool>(4);
  for (int round = 0; round < 128; ++round) {
    std::thread t([&] {
      tid_lease l(pool);
      EXPECT_LT(l.tid(), 4u);
      tid_lease nested(pool);
      EXPECT_LT(nested.tid(), 4u);
      EXPECT_NE(nested.tid(), l.tid());
    });
    t.join();
  }
  // After all that churn the pool must be whole: its full capacity is
  // leasable at once.
  tid_lease a(pool);
  tid_lease b(pool);
  tid_lease c(pool);
  tid_lease d(pool);
  EXPECT_THROW(tid_lease e(pool), std::runtime_error);
}

TEST(TidLease, NoTidDoubleLeasedUnderConcurrentChurn) {
  // Waves of threads, each repeatedly leasing from a pool exactly as wide
  // as the wave: every live thread holds (and caches) one id, so any
  // double-lease would hand two threads the same record slot. The claim
  // bitmask turns that into a deterministic failure: a thread owning a
  // lease sets its tid's bit and must always find it clear.
  constexpr unsigned kThreads = 8;
  auto pool = std::make_shared<tid_pool>(kThreads);
  std::atomic<unsigned> claimed{0};
  std::atomic<bool> double_leased{false};
  for (int wave = 0; wave < 16; ++wave) {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 64; ++i) {
          tid_lease l(pool);
          const unsigned bit = 1u << l.tid();
          if (claimed.fetch_or(bit, std::memory_order_acq_rel) & bit) {
            double_leased.store(true, std::memory_order_relaxed);
          }
          claimed.fetch_and(~bit, std::memory_order_acq_rel);
        }
      });
    }
    for (std::thread& t : ts) t.join();
  }
  EXPECT_FALSE(double_leased.load(std::memory_order_relaxed)) << "two live threads shared a tid";
}

TEST(ThreadHint, DistinctPerThreadStableWithin) {
  const unsigned mine = thread_hint();
  EXPECT_EQ(thread_hint(), mine);
  unsigned theirs = mine;
  std::thread t([&] { theirs = thread_hint(); });
  t.join();
  EXPECT_NE(theirs, mine);
}

// -------------------------------------------------------------- tls_cache --

TEST(TlsCache, PerThreadInstancesVisitedByForEach) {
  struct builder {
    int value = 0;
  };
  tls_cache<builder> cache;
  cache.local().value = 1;
  EXPECT_EQ(cache.local().value, 1) << "same thread, same instance";
  std::thread t([&] { cache.local().value = 2; });
  t.join();
  int sum = 0;
  std::size_t count = 0;
  cache.for_each([&](builder& b) {
    sum += b.value;
    ++count;
  });
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(sum, 3);
}

TEST(TlsCache, OwnersAreIsolated) {
  struct builder {
    int value = 0;
  };
  tls_cache<builder> a;
  tls_cache<builder> b;
  a.local().value = 10;
  EXPECT_EQ(b.local().value, 0);
}

// ---------------------------------------------------------- stats cells --

// More threads than cells, arranged so that cells are shared by threads
// running at the same time: two racers take hints, cells - 2 short-lived
// writers take the hints after them and exit, and two more racers then
// wrap around onto the first racers' cells. Once every writer has exited,
// each ledger, the lag count and every log2 bucket hold the exact totals
// (the exited writers' counts included), and the lag maximum is the
// largest sample any thread recorded.
TEST(StatsCells, SharedCellsKeepExactTotalsAfterWritersExit) {
  smr::stats st;
  const unsigned cells = smr::stats_cell_count();
  constexpr unsigned kPairs = 2;
  constexpr std::uint64_t kIters = 50000;  // per racer
  constexpr std::uint64_t kFillIters = 1000;  // per short-lived writer
  // One tight loop per instrument, so racers sharing a cell hit the same
  // word at the same time. Every writer records its own range of lags,
  // together 0 .. total - 1.
  auto bump = [&st](std::uint64_t first_lag, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) st.on_alloc();
    for (std::uint64_t i = 0; i < n; ++i) st.on_retire();
    for (std::uint64_t i = 0; i < n; ++i) st.on_lag(first_lag + i);
    for (std::uint64_t i = 0; i < n; ++i) st.on_free();
  };
  std::atomic<bool> go{false};
  std::atomic<unsigned> hinted{0};
  std::vector<unsigned> cell_of(2 * kPairs);
  std::vector<std::thread> racers;
  // A racer takes its hint before the next thread starts, so hints follow
  // the start order.
  auto start_racer = [&](unsigned r) {
    racers.emplace_back([&, r] {
      cell_of[r] = thread_hint() % cells;
      hinted.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      bump(r * kIters, kIters);
    });
    while (hinted.load(std::memory_order_acquire) <= r) {
      std::this_thread::yield();
    }
  };
  for (unsigned r = 0; r < kPairs; ++r) start_racer(r);
  for (unsigned f = 0; f + kPairs < cells; ++f) {
    std::thread([&, f] {
      bump(2 * kPairs * kIters + f * kFillIters, kFillIters);
    }).join();
  }
  for (unsigned r = kPairs; r < 2 * kPairs; ++r) start_racer(r);
  go.store(true, std::memory_order_release);
  for (std::thread& t : racers) t.join();
  for (unsigned r = 0; r < kPairs; ++r) {
    ASSERT_EQ(cell_of[r], cell_of[r + kPairs])
        << "racers " << r << " and " << r + kPairs << " must share a cell";
  }

  const std::uint64_t total =
      2 * kPairs * kIters + (cells - kPairs) * kFillIters;
  EXPECT_EQ(st.allocated.load(std::memory_order_relaxed), total);
  EXPECT_EQ(st.retired.load(std::memory_order_relaxed), total);
  EXPECT_EQ(st.freed.load(std::memory_order_relaxed), total);
  EXPECT_EQ(st.unreclaimed(), 0u);
  const smr::stats_snapshot s = st.snapshot();
  EXPECT_EQ(s.allocated, total);
  EXPECT_EQ(s.retired, total);
  EXPECT_EQ(s.freed, total);
  EXPECT_EQ(s.lag_count, total);
  EXPECT_EQ(s.lag_max_ns, total - 1);
  std::vector<std::uint64_t> want(smr::lag_counters::kBuckets, 0);
  for (std::uint64_t ns = 0; ns < total; ++ns) ++want[std::bit_width(ns)];
  for (unsigned b = 0; b < smr::lag_counters::kBuckets; ++b) {
    EXPECT_EQ(s.lag_bucket[b], want[b]) << "bucket " << b;
  }
}

// A reader polling snapshot() while writers bump every ledger never sees
// one fall: each cell only grows, and the reader sums them in order.
TEST(StatsCells, SnapshotNeverSeesALedgerDecrease) {
  smr::stats st;
  constexpr unsigned kWriters = 4;
  constexpr std::uint64_t kIters = 20000;
  std::atomic<unsigned> done{0};
  std::vector<std::thread> ws;
  for (unsigned w = 0; w < kWriters; ++w) {
    ws.emplace_back([&] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        st.on_alloc();
        st.on_retire();
        if (i % 4 == 0) st.on_lag(i);
        st.on_free();
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  smr::stats_snapshot prev = st.snapshot();
  std::uint64_t polls = 0;
  bool decreased = false;
  while (!decreased && done.load(std::memory_order_acquire) < kWriters) {
    const smr::stats_snapshot cur = st.snapshot();
    decreased = cur.allocated < prev.allocated ||
                cur.retired < prev.retired || cur.freed < prev.freed ||
                cur.lag_count < prev.lag_count;
    prev = cur;
    ++polls;
  }
  for (std::thread& w : ws) w.join();
  EXPECT_FALSE(decreased) << "after " << polls << " polls";
  const smr::stats_snapshot last = st.snapshot();
  EXPECT_EQ(last.retired, kWriters * kIters);
  EXPECT_EQ(last.freed, kWriters * kIters);
  EXPECT_EQ(last.lag_count, kWriters * kIters / 4);
}

}  // namespace
}  // namespace hyaline::smr::core
