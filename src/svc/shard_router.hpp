// Service scenario, part 2: the sharded KV front end.
//
// N shards, each owning its *own* SMR domain plus a michael_hashmap over
// it. Sharding the domain — not just the table — is the point: a stalled
// tenant pins reservations in exactly one shard's domain, so the blast
// radius of a stall-in-guard fault is one shard while the others keep
// reclaiming.
// Key→shard routing mixes the key first so the Zipfian head ranks
// (0, 1, 2, ...) do not land on consecutive shards with the tail's load
// still skewed.
//
// Per-shard op/hit counters (relaxed — statistics, not synchronization)
// let the SLO report show routing balance and where a hot-key hammer
// actually landed. They sit in per-thread cells, the smr::cell_banks
// smr::stats keeps its ledgers in, one set per shard: a thread whose
// core::thread_hint() is below smr::stats_cell_count() owns its padded
// cell of a shard and bumps it with a relaxed load and store, so no
// request touches a counter line another tenant writes or runs a locked
// instruction; any other hint bumps the shared bank with fetch_add, so no
// count is lost. snapshot() sums both banks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/align.hpp"
#include "ds/michael_hashmap.hpp"
#include "harness/schemes.hpp"
#include "smr/stats.hpp"

namespace hyaline::svc {

/// Key→shard routing: a splitmix64 finalizer over the key, reduced with
/// the multiply-shift trick (no modulo bias, no division).
inline unsigned route_shard(std::uint64_t key, unsigned shards) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<unsigned>(
      (static_cast<unsigned __int128>(z) * shards) >> 64);
}

/// One shard's cumulative counters at a point in time (ops from the
/// router, reclamation from the shard's domain).
struct shard_snapshot {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t puts = 0;
  std::uint64_t dels = 0;
  /// Always 0; kept because perfbench/src/cache.hpp reads it.
  std::uint64_t scans = 0;
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  std::uint64_t unreclaimed = 0;

  std::uint64_t ops() const { return gets + puts + dels; }
};

/// Cross-shard totals plus the routing-balance figure of merit.
struct shard_totals {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t puts = 0;
  std::uint64_t dels = 0;
  std::uint64_t retired = 0;
  std::uint64_t freed = 0;
  /// Hottest shard's op share over the mean (1.0 = perfectly even; 0
  /// when no ops ran).
  double imbalance = 0;
};

shard_totals aggregate(const std::vector<shard_snapshot>& shards);

template <class D>
class shard_router {
 public:
  using domain_type = D;
  using guard = typename D::guard;

  /// `make_domain` builds one domain per shard (scheme factory bound to
  /// scheme_params by the caller); `buckets_per_shard` sizes each shard's
  /// hashmap for its slice of the key space.
  template <class Factory>
  shard_router(unsigned shards, Factory&& make_domain,
               std::size_t buckets_per_shard)
      : counters_(shards == 0 ? 1 : shards) {
    const unsigned n = shards == 0 ? 1 : shards;
    doms_.reserve(n);
    maps_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      doms_.push_back(make_domain());
      maps_.push_back(std::make_unique<ds::michael_hashmap<D>>(
          *doms_.back(), buckets_per_shard));
    }
  }

  shard_router(const shard_router&) = delete;
  shard_router& operator=(const shard_router&) = delete;

  unsigned shards() const { return static_cast<unsigned>(doms_.size()); }
  unsigned shard_of(std::uint64_t key) const {
    return route_shard(key, shards());
  }
  D& domain(unsigned shard) { return *doms_[shard]; }

  bool get(std::uint64_t key, std::uint64_t& out) {
    const unsigned s = shard_of(key);
    const auto c = counters_.local(s);
    smr::bump(c.cell.gets, 1, c.owned);
    guard g(*doms_[s]);
    const bool ok = maps_[s]->get(g, key, out);
    if (ok) smr::bump(c.cell.hits, 1, c.owned);
    return ok;
  }

  /// Miss-fill: inserts `key` if absent (false when already cached).
  bool put(std::uint64_t key, std::uint64_t value) {
    const unsigned s = shard_of(key);
    const auto c = counters_.local(s);
    smr::bump(c.cell.puts, 1, c.owned);
    guard g(*doms_[s]);
    return maps_[s]->insert(g, key, value);
  }

  bool del(std::uint64_t key) {
    const unsigned s = shard_of(key);
    const auto c = counters_.local(s);
    smr::bump(c.cell.dels, 1, c.owned);
    guard g(*doms_[s]);
    return maps_[s]->remove(g, key);
  }

  /// One probe under a caller-held guard — the stall-in-guard protocol's
  /// "enter, touch, block": the guard must pin something before the
  /// stall window for the fault to bite.
  bool touch(guard& g, unsigned shard, std::uint64_t key) {
    return maps_[shard]->contains(g, key);
  }

  /// Release the calling thread's per-thread scheme state on every
  /// shard: finalize partial retirement batches (Hyaline family), clear
  /// lingering burst-entry reservations (EBR/IBR) and leave parked slot
  /// presences (Hyaline, Hyaline-S), so an idle or departed connection
  /// cannot stall epoch/era advancement, or pin what reaches its slot, on
  /// any shard. Call wherever a thread stops issuing operations (tenant
  /// exit, after the main thread's prefill).
  void thread_quiesce() {
    for (auto& d : doms_) {
      harness::detail::flush_thread(*d);
      harness::detail::quiesce_thread(*d);
    }
  }

  /// Teardown, in the leak-gate order of registry.cpp's run_cell: destroy
  /// the maps (their destructors free live nodes directly), then
  /// quiescently drain every shard domain — after which retired == freed
  /// must hold or nodes leaked. Counters stay readable via snapshot().
  void shutdown() {
    maps_.clear();
    for (auto& d : doms_) d->drain();
  }

  std::vector<shard_snapshot> snapshot() const {
    std::vector<shard_snapshot> out;
    out.reserve(doms_.size());
    for (unsigned i = 0; i < doms_.size(); ++i) {
      shard_snapshot s;
      for (const shard_counters& k : counters_.group(i)) {
        s.gets += k.gets.load(std::memory_order_relaxed);
        s.hits += k.hits.load(std::memory_order_relaxed);
        s.puts += k.puts.load(std::memory_order_relaxed);
        s.dels += k.dels.load(std::memory_order_relaxed);
      }
      const smr::stats& c = doms_[i]->counters();
      s.retired = c.retired.load(std::memory_order_relaxed);
      s.freed = c.freed.load(std::memory_order_relaxed);
      s.unreclaimed = c.unreclaimed();
      out.push_back(s);
    }
    return out;
  }

  /// Per-shard stats blocks for the aggregate telemetry sampler.
  std::vector<const smr::stats*> stats_pointers() const {
    std::vector<const smr::stats*> out;
    out.reserve(doms_.size());
    for (const auto& d : doms_) out.push_back(&d->counters());
    return out;
  }

 private:
  struct alignas(cache_line_size) shard_counters {
    std::atomic<std::uint64_t> gets{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> puts{0};
    std::atomic<std::uint64_t> dels{0};
  };

  std::vector<std::unique_ptr<D>> doms_;
  std::vector<std::unique_ptr<ds::michael_hashmap<D>>> maps_;
  smr::cell_banks<shard_counters> counters_;  // one group per shard
};

}  // namespace hyaline::svc
