// Unit tests for the shared SMR building blocks in src/smr/core/ that the
// baseline schemes are composed from.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "smr/core/era_clock.hpp"
#include "smr/core/retired_batch.hpp"
#include "smr/core/thread_registry.hpp"
#include "smr/ebr.hpp"
#include "smr/hyaline.hpp"
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
  domain_counters ctrs;
  retired_list<test_node> rl;
  auto nodes = make_nodes(8);
  for (auto& n : nodes) rl.push(&n, 100);
  // Keep even-indexed stamps, free odd ones.
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i].stamp = i;
  std::size_t freed = 0;
  rl.scan(ctrs, [](const test_node* n) { return n->stamp % 2 == 1; },
          [&freed](test_node*) { ++freed; });
  EXPECT_EQ(freed, 4u);
  EXPECT_EQ(rl.size(), 4u);
  // After rearm the next scan trigger is 2*kept + threshold pushes away.
  rl.rearm(ctrs, 10);
  auto more = make_nodes(32);
  std::size_t pushes_until_signal = 0;
  for (auto& n : more) {
    ++pushes_until_signal;
    if (rl.push(&n, 10)) break;
  }
  EXPECT_EQ(rl.size(), 4 + pushes_until_signal);
  EXPECT_EQ(rl.size(), 2u * 4u + 10u);  // the rearmed scan point
  EXPECT_EQ(ctrs.scans.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(ctrs.rearms.load(std::memory_order_relaxed), 1u);
}

TEST(RetiredList, ScanFreesEverythingWhenUnpinned) {
  domain_counters ctrs;
  retired_list<test_node> rl;
  auto nodes = make_nodes(16);
  for (auto& n : nodes) rl.push(&n, 100);
  std::size_t freed = 0;
  rl.scan(ctrs, [](const test_node*) { return true; },
          [&freed](test_node*) { ++freed; });
  EXPECT_EQ(freed, 16u);
  EXPECT_TRUE(rl.empty());
}

// --------------------------------------------------------- limbo_queue --

TEST(LimboQueue, ReclaimsInFifoOrderWhileReady) {
  domain_counters ctrs;
  limbo_queue<test_node> q;
  auto nodes = make_nodes(6);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].stamp = i;  // monotone "retire epoch"
    q.push_back(&nodes[i]);
  }
  std::vector<std::uint64_t> freed;
  q.reclaim_ready(ctrs, [](const test_node* n) { return n->stamp < 3; },
                  [&freed](test_node* n) { freed.push_back(n->stamp); });
  EXPECT_EQ(freed, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_FALSE(q.empty());
  q.reclaim_ready(ctrs, [](const test_node*) { return true; },
                  [&freed](test_node* n) { freed.push_back(n->stamp); });
  EXPECT_EQ(freed.size(), 6u);
  EXPECT_EQ(ctrs.scans.load(std::memory_order_relaxed), 2u);
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
  domain_counters ctrs;
  era_clock clock(1, ctrs);
  std::uint64_t counter = 0;
  for (int i = 0; i < 10; ++i) clock.tick(counter, 4);
  EXPECT_EQ(clock.load(std::memory_order_relaxed), 1u + 10 / 4);
  EXPECT_EQ(ctrs.era_advances.load(std::memory_order_relaxed), 10u / 4);
}

TEST(EraClock, TryAdvanceIsConditional) {
  domain_counters ctrs;
  era_clock clock(2, ctrs);
  EXPECT_FALSE(clock.try_advance(1));  // stale observation
  EXPECT_EQ(clock.load(std::memory_order_relaxed), 2u);
  EXPECT_TRUE(clock.try_advance(2));
  EXPECT_EQ(clock.load(std::memory_order_relaxed), 3u);
  EXPECT_EQ(ctrs.era_advances.load(std::memory_order_relaxed), 1u)
      << "only the advance that happened is counted";
}

TEST(EraClock, ProtectWithEraRereadsUntilStable) {
  domain_counters ctrs;
  era_clock clock(1, ctrs);
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

struct test_rec {
  int value = 7;
};
using test_registry = thread_registry<test_rec>;

/// Take `n` nested leases on the calling thread, recording their ids and
/// stamping each record with its id; returns with them all checked in.
std::vector<unsigned> hold_leases(test_registry& recs, unsigned n) {
  std::vector<std::unique_ptr<test_registry::lease>> held;
  std::vector<unsigned> ids;
  for (unsigned i = 0; i < n; ++i) {
    held.push_back(std::make_unique<test_registry::lease>(recs));
    ids.push_back(held.back()->id());
    held.back()->rec().value = static_cast<int>(held.back()->id());
  }
  return ids;
}

std::vector<unsigned> first_ids(unsigned n) {
  std::vector<unsigned> ids(n);
  for (unsigned i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

TEST(ThreadRegistry, ClaimsRecordsOnDemand) {
  domain_counters ctrs;
  test_registry recs(ctrs);
  EXPECT_EQ(recs.size(), 0u) << "no record before the first lease";
  {
    test_registry::lease a(recs);
    EXPECT_EQ(recs.size(), 1u);
    EXPECT_EQ(a.rec().value, 7) << "a fresh record is default-constructed";
    a.rec().value = 42;
    EXPECT_EQ(&recs[a.id()], &a.rec());
  }
  int sum = 0;
  recs.for_each([&sum](const test_rec& r) { sum += r.value; });
  EXPECT_EQ(sum, 42) << "for_each walks exactly the claimed record";
  EXPECT_TRUE(recs.all_of([](const test_rec& r) { return r.value == 42; }));
  EXPECT_EQ(ctrs.tid_acquires.load(std::memory_order_relaxed), 1u);
}

// ------------------------------------------------------------ tid leases --

TEST(TidLease, NestedLeasesGetDistinctIdsAndCacheForReuse) {
  domain_counters ctrs;
  test_registry recs(ctrs);
  {
    test_registry::lease a(recs);
    EXPECT_EQ(a.id(), 0u) << "lowest free id first";
    {
      test_registry::lease b(recs);
      EXPECT_EQ(b.id(), 1u) << "nested lease checks out a second id";
    }
    test_registry::lease c(recs);
    EXPECT_EQ(c.id(), 1u) << "checked-in id is cached for instant reuse";
  }
  test_registry::lease d(recs);
  EXPECT_EQ(d.id(), 0u);
  EXPECT_EQ(recs.size(), 2u);
  EXPECT_EQ(ctrs.tid_acquires.load(std::memory_order_relaxed), 2u) << "cache hits claim nothing";
}

TEST(TidLease, GrowthKeepsIdsLowestFreeAndRecordsInPlace) {
  // Three first segments' worth of leases at once: the registry grows
  // twice while records stamped before each growth stay where they were.
  constexpr unsigned kLeases = 3 * kFirstSegmentRecords;
  domain_counters ctrs;
  test_registry recs(ctrs);
  std::vector<unsigned> first;
  std::thread([&] { first = hold_leases(recs, kLeases); }).join();
  EXPECT_EQ(first, first_ids(kLeases)) << "ids are the lowest free, in order";
  EXPECT_EQ(recs.size(), kLeases);
  for (unsigned i = 0; i < kLeases; ++i) {
    EXPECT_EQ(recs[i].value, static_cast<int>(i)) << "record " << i;
  }
  // The thread's exit gave every id back: a second thread gets the same
  // ids again, and the registry claims no new record.
  std::vector<unsigned> second;
  std::thread([&] { second = hold_leases(recs, kLeases); }).join();
  EXPECT_EQ(second, first);
  EXPECT_EQ(recs.size(), kLeases);
  // Past the first thread's peak, while this thread holds one id: the
  // lowest free ids are 1.. and the registry grows by one record.
  test_registry::lease mine(recs);
  EXPECT_EQ(mine.id(), 0u);
  std::vector<unsigned> third;
  std::thread([&] { third = hold_leases(recs, kLeases); }).join();
  std::vector<unsigned> want = first_ids(kLeases + 1);
  want.erase(want.begin());
  EXPECT_EQ(third, want);
  EXPECT_EQ(recs.size(), kLeases + 1);
}

TEST(TidLease, ThreadExitReturnsCachedIdsToThePool) {
  domain_counters ctrs;
  test_registry recs(ctrs);
  std::thread t([&] { test_registry::lease a(recs); });
  t.join();
  // The worker's cached lease was released at thread exit, so id 0 is
  // free again here and no second record is claimed.
  test_registry::lease mine(recs);
  EXPECT_EQ(mine.id(), 0u);
  EXPECT_EQ(recs.size(), 1u);
}

TEST(TidLease, ChurnOfShortLivedThreadsReusesTheSameRecords) {
  // The recycling contract under sustained churn: each short-lived thread
  // caches its leases until exit, exit returns them, and the next spawn
  // takes the same ids — forever. A single missed release would make a
  // later round claim a third record.
  domain_counters ctrs;
  test_registry recs(ctrs);
  for (int round = 0; round < 128; ++round) {
    std::thread t([&] {
      test_registry::lease l(recs);
      test_registry::lease nested(recs);
      EXPECT_NE(nested.id(), l.id());
      EXPECT_LT(l.id(), 2u);
      EXPECT_LT(nested.id(), 2u);
    });
    t.join();
  }
  EXPECT_EQ(recs.size(), 2u) << "a thread kept its id past its exit";
}

TEST(TidLease, NoTidDoubleLeasedUnderConcurrentChurn) {
  // Waves of threads, each repeatedly leasing: every live thread holds
  // (and caches) one id, so any double-lease would hand two threads the
  // same record. The claim bitmask turns that into a deterministic
  // failure: a thread owning a lease sets its id's bit and must always
  // find it clear. The waves are twice the first segment, so the first
  // one grows the registry while its threads lease.
  constexpr unsigned kThreads = 2 * kFirstSegmentRecords;
  domain_counters ctrs;
  test_registry recs(ctrs);
  std::atomic<unsigned> claimed{0};
  std::atomic<bool> double_leased{false};
  for (int wave = 0; wave < 16; ++wave) {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 64; ++i) {
          test_registry::lease l(recs);
          const unsigned bit = 1u << l.id();
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
  EXPECT_LE(recs.size(), kThreads) << "more records than threads alive at once";
}

TEST(ThreadHint, DistinctPerThreadStableWithin) {
  const unsigned mine = thread_hint();
  EXPECT_EQ(thread_hint(), mine);
  unsigned theirs = mine;
  std::thread t([&] { theirs = thread_hint(); });
  t.join();
  EXPECT_NE(theirs, mine);
}

// Hints are the lowest ids free among live threads. Three threads take
// theirs one after another and stay live: each gets a higher id than the
// last, none shares one with another live thread. When the middle one
// exits, the next new thread gets its id.
TEST(ThreadHint, ExitedThreadsIdGoesToTheNextNewThread) {
  const unsigned mine = thread_hint();
  constexpr unsigned kLive = 3;
  std::vector<unsigned> ids(kLive);
  std::atomic<unsigned> taken{0};
  std::atomic<bool> middle_may_exit{false};
  std::atomic<bool> all_may_exit{false};
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kLive; ++t) {
    ts.emplace_back([&, t] {
      ids[t] = thread_hint();
      taken.fetch_add(1, std::memory_order_release);
      const std::atomic<bool>& may_exit =
          t == 1 ? middle_may_exit : all_may_exit;
      while (!may_exit.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    while (taken.load(std::memory_order_acquire) <= t) {
      std::this_thread::yield();
    }
  }
  for (unsigned t = 0; t < kLive; ++t) {
    EXPECT_NE(ids[t], mine) << "thread " << t;
    if (t + 1 < kLive) EXPECT_LT(ids[t], ids[t + 1]) << "thread " << t;
  }
  middle_may_exit.store(true, std::memory_order_release);
  ts[1].join();
  unsigned next = 0;
  std::thread([&] { next = thread_hint(); }).join();
  EXPECT_EQ(next, ids[1]) << "the exited thread's id is the lowest free";
  all_may_exit.store(true, std::memory_order_release);
  ts[0].join();
  ts[2].join();
}

// ------------------------------------------------ thread_registry::local --

TEST(ThreadRegistry, LocalIsTheThreadsOneRecordAndForEachSeesExitedOnes) {
  domain_counters ctrs;
  test_registry recs(ctrs);
  test_rec& mine = recs.local();
  mine.value = 1;
  EXPECT_EQ(&recs.local(), &mine) << "same thread, same record";
  std::thread([&] {
    EXPECT_NE(&recs.local(), &mine);
    recs.local().value = 2;
  }).join();
  int sum = 0;
  unsigned count = 0;
  recs.for_each([&](const test_rec& r) {
    sum += r.value;
    ++count;
  });
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(sum, 3) << "for_each visits the exited thread's record";
  EXPECT_EQ(ctrs.tid_acquires.load(std::memory_order_relaxed), 0u)
      << "local() claims are not guard claims";
}

TEST(ThreadRegistry, DistinctRegistriesHoldDistinctLocalRecords) {
  domain_counters ctrs;
  test_registry a(ctrs);
  test_registry b(ctrs);
  a.local().value = 10;
  EXPECT_EQ(b.local().value, 7);
  EXPECT_NE(&a.local(), &b.local());
}

TEST(ThreadRegistry, AnExitedThreadsLocalRecordPassesToTheNextThread) {
  domain_counters ctrs;
  test_registry recs(ctrs);
  int cached = 0;
  recs.for_each_cached([&cached](test_rec&) { ++cached; });
  EXPECT_EQ(cached, 0) << "for_each_cached claims nothing";
  EXPECT_EQ(recs.size(), 0u);
  std::thread([&] { recs.local().value = 42; }).join();
  int seen = 0;
  std::thread([&] {
    recs.for_each_cached([&seen](test_rec& r) { seen = r.value; });
    EXPECT_EQ(seen, 0) << "nothing held before the first local()";
    seen = recs.local().value;
  }).join();
  EXPECT_EQ(seen, 42) << "the next thread takes the record as it stands";
  EXPECT_EQ(recs.size(), 1u);
}

// A miss in the lease table prunes the entries of destroyed domains,
// local() ones included: a thread that outlives many domains does not
// keep (or scan) an entry for each.
TEST(ThreadRegistry, AThreadOutlivingManyDomainsKeepsAFewEntries) {
  std::size_t entries = 0;
  std::thread([&entries] {
    for (int i = 0; i < 1000; ++i) {
      {
        hyaline::domain dom;
        hyaline::domain::guard g(dom);
      }
      {
        ebr_domain dom;
        ebr_domain::guard g(dom);
      }
    }
    entries = detail::tls_leases.leases.size();
  }).join();
  EXPECT_LE(entries, 2u);
}

// ---------------------------------------------------------- stats cells --

// Every writer records its own range of lags, [first_lag, first_lag + n),
// one tight loop per instrument, so writers sharing a cell hit the same
// word at the same time.
void bump_after_alloc(smr::stats& st, std::uint64_t first_lag,
                      std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) st.on_retire();
  for (std::uint64_t i = 0; i < n; ++i) st.on_lag(first_lag + i);
  for (std::uint64_t i = 0; i < n; ++i) st.on_free();
}

void bump_all(smr::stats& st, std::uint64_t first_lag, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) st.on_alloc();
  bump_after_alloc(st, first_lag, n);
}

// Once the writers are done, each ledger, the lag count and every log2
// bucket hold the exact totals of the lag ranges {first, n} the writers
// recorded, and the lag maximum is the largest lag of all.
void expect_exact_totals(
    const smr::stats& st,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& ranges) {
  std::uint64_t total = 0, max = 0;
  std::vector<std::uint64_t> want(smr::lag_counters::kBuckets, 0);
  for (const auto& [first, n] : ranges) {
    total += n;
    for (std::uint64_t ns = first; ns < first + n; ++ns) {
      ++want[std::bit_width(ns)];
    }
    if (n != 0) max = std::max(max, first + n - 1);
  }
  EXPECT_EQ(st.allocated.load(std::memory_order_relaxed), total);
  EXPECT_EQ(st.retired.load(std::memory_order_relaxed), total);
  EXPECT_EQ(st.freed.load(std::memory_order_relaxed), total);
  EXPECT_EQ(st.unreclaimed(), 0u);
  const smr::stats_snapshot s = st.snapshot();
  EXPECT_EQ(s.allocated, total);
  EXPECT_EQ(s.retired, total);
  EXPECT_EQ(s.freed, total);
  EXPECT_EQ(s.lag_count, total);
  EXPECT_EQ(s.lag_max_ns, max);
  for (unsigned b = 0; b < smr::lag_counters::kBuckets; ++b) {
    EXPECT_EQ(s.lag_bucket[b], want[b]) << "bucket " << b;
  }
}

// More live threads than cells: 2 * cells + 2 threads take hints and stay
// live, so the ids run past the cell count. Each writes a little, owners
// to their own cells and the rest to the shared bank. Then two pairs of
// threads whose hints land on one shared cell each (ids h and h + cells,
// both at or past the count) race on it, while the other threads hold
// their ids off the CPU: 30 ms on `allocated`, long enough to run at once
// on any scheduler, then as many bumps of each other instrument. Totals,
// lag buckets and the lag maximum stay exact.
TEST(StatsCells, SharedBankKeepsExactTotalsWithMoreLiveThreadsThanCells) {
  smr::stats st;
  const unsigned cells = smr::stats_cell_count();
  const unsigned threads = 2 * cells + 2;
  constexpr unsigned kRacingCells = 2;
  constexpr std::uint64_t kHold = 1000;  // per thread, before the race
  constexpr std::uint64_t kRaceLag = std::uint64_t{1} << 32;
  (void)thread_hint();  // this thread keeps its id throughout
  std::vector<unsigned> hint_of(threads);
  std::vector<bool> races(threads, false);
  std::vector<std::uint64_t> raced(threads, 0);
  unsigned racers = 0;
  std::atomic<unsigned> ready{0};
  std::atomic<unsigned> at_start{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> race_over{false};
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      hint_of[t] = thread_hint();
      bump_all(st, t * kHold, kHold);
      ready.fetch_add(1, std::memory_order_release);
      go.wait(false, std::memory_order_acquire);
      if (!races[t]) {
        race_over.wait(false, std::memory_order_acquire);
        return;
      }
      at_start.fetch_add(1, std::memory_order_acq_rel);
      while (at_start.load(std::memory_order_acquire) < racers) {
        std::this_thread::yield();
      }
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i) st.on_alloc();
        n += 256;
      }
      bump_after_alloc(st, kRaceLag * (t + 1), n);
      raced[t] = n;
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  // Group the shared-bank threads by cell; the first pairs race.
  std::vector<std::vector<unsigned>> on_shared_cell(cells);
  for (unsigned t = 0; t < threads; ++t) {
    if (hint_of[t] >= cells) {
      on_shared_cell[hint_of[t] & (cells - 1)].push_back(t);
    }
  }
  for (const std::vector<unsigned>& group : on_shared_cell) {
    if (group.size() < 2 || racers == 2 * kRacingCells) continue;
    races[group[0]] = races[group[1]] = true;
    racers += 2;
  }
  go.store(true, std::memory_order_release);
  go.notify_all();
  while (at_start.load(std::memory_order_acquire) < racers) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true, std::memory_order_relaxed);
  for (unsigned t = 0; t < threads; ++t) {
    if (races[t]) ts[t].join();
  }
  race_over.store(true, std::memory_order_release);
  race_over.notify_all();
  for (std::thread& t : ts) {
    if (t.joinable()) t.join();
  }
  ASSERT_EQ(racers, 2 * kRacingCells)
      << "live threads must share shared-bank cells";
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (unsigned t = 0; t < threads; ++t) {
    ranges.emplace_back(t * kHold, kHold);
    if (races[t]) ranges.emplace_back(kRaceLag * (t + 1), raced[t]);
  }
  expect_exact_totals(st, ranges);
}

// A thread-local destructor that runs after its thread handed its id back
// still counts, in the shared bank: the id's next holder, which owns the
// cell by then, bumps it at the same time, and no count is lost.
TEST(StatsCells, BumpAfterTheIdWasHandedBackKeepsExactTotals) {
  smr::stats st;
  constexpr std::uint64_t kIters = 100000;
  std::atomic<bool> handed_back{false};
  std::atomic<bool> next_holder_ready{false};
  unsigned exited_id = 0, late_hint = 0, next_id = 0;
  struct at_thread_exit {
    std::function<void()> run;
    ~at_thread_exit() { run(); }
  };
  std::thread exiting([&] {
    // Built before this thread's first thread_hint(), so destroyed after
    // the thread's id is handed back.
    thread_local at_thread_exit late;
    late.run = [&] {
      late_hint = thread_hint();
      handed_back.store(true, std::memory_order_release);
      while (!next_holder_ready.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      bump_all(st, kIters, kIters);
    };
    exited_id = thread_hint();
    bump_all(st, 0, kIters);
  });
  std::thread next_holder([&] {
    while (!handed_back.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    next_id = thread_hint();
    next_holder_ready.store(true, std::memory_order_release);
    bump_all(st, 2 * kIters, kIters);
  });
  exiting.join();
  next_holder.join();
  EXPECT_EQ(next_id, exited_id) << "the handed-back id goes to the next thread";
  EXPECT_EQ(late_hint, exited_id | kHintReturned);
  EXPECT_GE(late_hint, smr::stats_cell_count());
  expect_exact_totals(st, {{0, 3 * kIters}});
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
