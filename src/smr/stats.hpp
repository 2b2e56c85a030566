// Reclamation statistics shared by every SMR domain.
//
// The paper's Figures 9/12/14/16 plot the average number of retired but not
// yet reclaimed objects per operation; these counters are what the harness
// samples to regenerate them. Counters are relaxed (they are monotone
// statistics, not synchronization).
//
// Three surfaces live here:
//   - the alloc/retire/free ledgers,
//   - `domain_counters`: mechanism-level event counts (scans, rearms,
//     batch finalizes, era advances, tid acquires) bumped by the
//     core primitives every scheme is built from, so all 12 schemes report
//     them uniformly without per-scheme bookkeeping,
//   - `lag_counters`: a log-bucketed retire->free lag histogram (same
//     bucket geometry as lab::latency_histogram) fed at free time from the
//     retire timestamp stamped on the node. Lag tracking is gated by
//     obs::lag_tracking() — off, retire/free pay one relaxed load each.
//
// Per-thread cells. Every alloc, retire and free of every scheme bumps a
// ledger, so the ledgers and the lag histogram are not one shared block
// (that line would bounce between all workers, the very traffic the
// padded per-slot words elsewhere avoid) but cells the domain owns, in
// the two banks of a `cell_banks`. A thread whose core::thread_hint() is
// below stats_cell_count() owns cell[hint] of the first bank: no other
// live thread writes it, so a bump is a relaxed load and store, no locked
// instruction. Any other hint (more live threads than cells, or a bump
// from a thread-local destructor after the thread handed its id back)
// bumps cell[hint & (count - 1)] of the shared bank with fetch_add, so no
// count is lost there either. A cell's three ledgers share one cache line
// — one hot line per thread per domain — and its lag block sits on lines
// of its own, written only while lag tracking is on. Readers sum the
// cells: each ledger's load(order), unreclaimed() and snapshot(). Cells
// outlive the threads that wrote them, and the next holder of a returned
// id carries on from its count, so the sums keep exited threads' counts.
// Once writers are quiescent the sums are the exact totals; while they
// run, each sum a reader takes never falls below the one it took before
// (every cell only grows). `domain_counters` sees about one bump per
// hundred ops and stays one shared block, on a line of its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>

#include "common/align.hpp"
#include "obs/trace.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/thread_hint.hpp"

namespace hyaline::smr {

/// Mechanism-level event counters, bumped (relaxed) by the core retired-set
/// primitives and the schemes' finalize call sites. Monotone statistics
/// only — never synchronization.
struct domain_counters {
  std::atomic<std::uint64_t> scans{0};      // reclamation passes over a retired set
  std::atomic<std::uint64_t> rearms{0};     // adaptive rescan-point resets
  std::atomic<std::uint64_t> finalizes{0};  // Hyaline batch finalizations
  std::atomic<std::uint64_t> era_advances{0};
  std::atomic<std::uint64_t> tid_acquires{0};  // slow-path tid pool checkouts

  void on_scan() { scans.fetch_add(1, std::memory_order_relaxed); }
  void on_rearm() { rearms.fetch_add(1, std::memory_order_relaxed); }
  void on_finalize() { finalizes.fetch_add(1, std::memory_order_relaxed); }
  void on_era_advance() {
    era_advances.fetch_add(1, std::memory_order_relaxed);
  }
  void on_tid_acquire() {
    tid_acquires.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Add `n` to one counter of the calling thread's cell: a relaxed load
/// and store when the thread owns the cell (it is the only writer, so no
/// locked instruction), a fetch_add in a shared one.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n,
                 bool owned) {
  if (owned) {
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  } else {
    c.fetch_add(n, std::memory_order_relaxed);
  }
}

/// Atomic log2-bucketed histogram of retire->free lag in nanoseconds: one
/// cell's block. Bucket geometry matches lab::latency_histogram exactly
/// (bucket 0 holds {0}, bucket b holds [2^(b-1), 2^b - 1]) so the harness
/// can rehydrate a latency_histogram from a snapshot and reuse its
/// percentile math.
struct alignas(cache_line_size) lag_counters {
  static constexpr unsigned kBuckets = 65;

  std::atomic<std::uint64_t> bucket[kBuckets] = {};
  std::atomic<std::uint64_t> max_ns{0};

  void record(std::uint64_t ns, bool owned) {
    bump(bucket[std::bit_width(ns)], 1, owned);
    std::uint64_t m = max_ns.load(std::memory_order_relaxed);
    if (owned) {
      if (ns > m) max_ns.store(ns, std::memory_order_relaxed);
      return;
    }
    while (ns > m &&
           !max_ns.compare_exchange_weak(m, ns, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
};

/// One thread's share of a domain's hot-path instruments: the three
/// ledgers on the first line, the lag block on the lines after it.
struct stats_cell {
  std::atomic<std::uint64_t> allocated{0};
  std::atomic<std::uint64_t> retired{0};
  std::atomic<std::uint64_t> freed{0};
  lag_counters lag;  // line-aligned, so it starts on the next line
};
static_assert(alignof(stats_cell) == cache_line_size);
static_assert(sizeof(lag_counters) + cache_line_size == sizeof(stats_cell),
              "the ledgers must fit one line ahead of the lag block");

/// Cells per bank: twice the hardware threads, rounded up to a power of
/// two (the shared bank's index is a mask), between 4 and 256. Hints are
/// the lowest ids free among live threads, so up to that many live
/// threads each own a cell.
inline unsigned stats_cell_count() {
  static const unsigned n = std::bit_ceil(
      std::clamp(2 * std::thread::hardware_concurrency(), 4u, 256u));
  return n;
}

/// `groups` sets of per-thread counter cells (smr::stats keeps one, the
/// shard router one per shard). Each set is two banks of
/// stats_cell_count() cells: the first bank's cell[hint] belongs to the
/// thread holding that hint, the shared bank's cell[hint & (count - 1)]
/// takes every other hint (see the header comment). `Cell` must be
/// cache-line aligned, so no two cells share a line.
template <class Cell>
class cell_banks {
 public:
  static_assert(alignof(Cell) >= cache_line_size);

  /// The calling thread's cell, and whether it owns it.
  struct local_cell {
    Cell& cell;
    bool owned;
  };

  explicit cell_banks(unsigned groups = 1)
      : count_(stats_cell_count()),
        cells_(std::make_unique<Cell[]>(std::size_t{groups} * 2 * count_)) {}

  local_cell local(unsigned group = 0) {
    const unsigned h = core::thread_hint();
    Cell* g = &cells_[std::size_t{group} * 2 * count_];
    if (h < count_) return {g[h], true};
    return {g[count_ + (h & (count_ - 1))], false};
  }

  /// Both banks of one group, for readers to sum.
  std::span<const Cell> group(unsigned group = 0) const {
    return {&cells_[std::size_t{group} * 2 * count_], 2 * count_};
  }

 private:
  // Read-only after construction, so the hot path's loads of them never
  // miss on another thread's write.
  const unsigned count_;
  const std::unique_ptr<Cell[]> cells_;
};

/// Read side of one ledger: the sum of its field over every cell.
class ledger {
 public:
  ledger(std::span<const stats_cell> cells,
         std::atomic<std::uint64_t> stats_cell::*field)
      : cells_(cells), field_(field) {}

  std::uint64_t load(std::memory_order order) const {
    std::uint64_t sum = 0;
    for (const stats_cell& c : cells_) sum += (c.*field_).load(order);
    return sum;
  }

 private:
  std::span<const stats_cell> cells_;
  std::atomic<std::uint64_t> stats_cell::*field_;
};

/// Plain-integer copy of everything a domain counts, for carrying results
/// across domain teardown (workload_result, service_result).
struct stats_snapshot {
  std::uint64_t allocated = 0;
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  std::uint64_t scans = 0;
  /// Always 0; kept because perfbench/src/common.hpp copies it.
  std::uint64_t steals = 0;
  std::uint64_t rearms = 0;
  std::uint64_t finalizes = 0;
  std::uint64_t era_advances = 0;
  std::uint64_t tid_acquires = 0;
  std::uint64_t lag_bucket[lag_counters::kBuckets] = {};
  std::uint64_t lag_count = 0;
  std::uint64_t lag_max_ns = 0;

  /// Element-wise sum (sharded service domains report one total).
  void accumulate(const stats_snapshot& o) {
    allocated += o.allocated;
    retired += o.retired;
    freed += o.freed;
    scans += o.scans;
    rearms += o.rearms;
    finalizes += o.finalizes;
    era_advances += o.era_advances;
    tid_acquires += o.tid_acquires;
    for (unsigned b = 0; b < lag_counters::kBuckets; ++b) {
      lag_bucket[b] += o.lag_bucket[b];
    }
    lag_count += o.lag_count;
    if (o.lag_max_ns > lag_max_ns) lag_max_ns = o.lag_max_ns;
  }
};

struct stats {
  stats()
      : allocated(cells_.group(), &stats_cell::allocated),
        retired(cells_.group(), &stats_cell::retired),
        freed(cells_.group(), &stats_cell::freed) {}

  stats(const stats&) = delete;
  stats& operator=(const stats&) = delete;

 private:
  cell_banks<stats_cell> cells_;

 public:
  const ledger allocated;
  const ledger retired;
  const ledger freed;
  alignas(cache_line_size) domain_counters events;

  void on_alloc(std::uint64_t n = 1) {
    const auto c = cells_.local();
    bump(c.cell.allocated, n, c.owned);
  }
  void on_retire(std::uint64_t n = 1) {
    const auto c = cells_.local();
    bump(c.cell.retired, n, c.owned);
  }
  void on_free(std::uint64_t n = 1) {
    const auto c = cells_.local();
    bump(c.cell.freed, n, c.owned);
  }
  /// One retire->free lag sample; free_node feeds it while lag tracking
  /// is on.
  void on_lag(std::uint64_t ns) {
    const auto c = cells_.local();
    c.cell.lag.record(ns, c.owned);
  }

  /// Retire-path half of lag tracking: stamp the node with the current
  /// tick count. One relaxed load + predicted branch when tracking is off.
  void stamp_retire(core::reclaimable* n) {
    on_retire();
    if (obs::lag_tracking()) [[unlikely]] {
      n->obs_retire_ticks = obs::now_ticks();
    }
  }

  /// Free-path counterpart: feed the lag histogram from the retire stamp,
  /// destroy the node through its typed thunk, bump the freed ledger.
  /// Every scheme's reclamation loop funnels user-retired nodes here.
  template <class Node>
  void free_node(Node* n) {
    if (obs::lag_tracking()) [[unlikely]] {
      if (n->obs_retire_ticks != 0) {
        on_lag(obs::ticks_to_ns(obs::now_ticks() - n->obs_retire_ticks));
      }
    }
    core::destroy(n);
    on_free();
  }

  /// Retired-but-not-yet-reclaimed snapshot. Relaxed reads: the value is a
  /// statistical sample, momentary inconsistencies are fine.
  std::uint64_t unreclaimed() const {
    std::uint64_t r = 0, f = 0;
    for (const stats_cell& c : cells_.group()) {
      r += c.retired.load(std::memory_order_relaxed);
      f += c.freed.load(std::memory_order_relaxed);
    }
    return r >= f ? r - f : 0;
  }

  /// Relaxed copy-out of every counter (see stats_snapshot).
  stats_snapshot snapshot() const {
    stats_snapshot s;
    for (const stats_cell& c : cells_.group()) {
      s.allocated += c.allocated.load(std::memory_order_relaxed);
      s.retired += c.retired.load(std::memory_order_relaxed);
      s.freed += c.freed.load(std::memory_order_relaxed);
      for (unsigned b = 0; b < lag_counters::kBuckets; ++b) {
        s.lag_bucket[b] += c.lag.bucket[b].load(std::memory_order_relaxed);
      }
      s.lag_max_ns = std::max(s.lag_max_ns,
                              c.lag.max_ns.load(std::memory_order_relaxed));
    }
    for (std::uint64_t n : s.lag_bucket) s.lag_count += n;
    s.scans = events.scans.load(std::memory_order_relaxed);
    s.rearms = events.rearms.load(std::memory_order_relaxed);
    s.finalizes = events.finalizes.load(std::memory_order_relaxed);
    s.era_advances = events.era_advances.load(std::memory_order_relaxed);
    s.tid_acquires = events.tid_acquires.load(std::memory_order_relaxed);
    return s;
  }
};

using padded_stats = hyaline::padded<stats>;

}  // namespace hyaline::smr
