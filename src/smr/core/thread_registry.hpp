// Transparent thread identity for the SMR schemes.
//
// API v1 required every call site to hand-thread a `tid` into each guard.
// API v2 makes thread identity an implementation detail: a guard leases a
// per-thread record from its domain's `thread_registry` through a
// thread-local cache, so the first guard a thread takes against a domain
// pays one mutex-protected claim and every later guard is a small TLS
// scan. A lease is checked in when its guard dies but stays *cached* by
// the owning thread for instant reuse; the registry gets its id back only
// when the thread exits. Nested guards on one thread check out distinct
// records, which preserves the "one reservation per record" invariant of
// EBR/IBR/HP/HE and the 1:1 slot mapping of Hyaline-1.
//
// The registry has no capacity: nobody declares how many threads will
// come. A claim takes the lowest free id (core::lowest_free_ids, the
// allocator thread_hint() uses too); an id no thread held before gets a
// fresh record, made under the same mutex in a slot_directory that grows
// by doubling, so a record never moves and a lease holds a plain pointer
// to it. Because ids are lowest-free, size() (one past the highest id
// ever leased) is the peak number of records in use at once, and each
// scan reads it once and walks only those records.
//
// Also here: tls_cache<V>, the per-(thread, domain) value cache the
// Hyaline variants keep their batch builders in.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/slot_directory.hpp"
#include "smr/core/thread_hint.hpp"
#include "smr/stats.hpp"

namespace hyaline::smr::core {

/// Process-unique id source shared by registries and TLS caches.
inline std::uint64_t next_unique_id() {
  static std::atomic<std::uint64_t> ids{1};
  return ids.fetch_add(1, std::memory_order_relaxed);
}

namespace detail {

/// What a thread's lease cache may outlive its domain with: the ids, so a
/// thread that exits later can still hand its own back.
struct id_pool {
  const std::uint64_t uid = next_unique_id();
  lowest_free_ids ids;
  /// The domain is gone: lease caches prune their entries for it instead
  /// of holding them (and this object) until thread exit.
  std::atomic<bool> closed{false};
};

struct cached_lease {
  std::uint64_t pool_uid;
  unsigned id;
  bool in_use;
  void* rec;  // the id's record; valid while the domain lives
  std::shared_ptr<id_pool> pool;
};

/// Per-thread lease table; the destructor returns every cached id when
/// the thread exits, so short-lived threads recycle ids.
struct lease_table {
  std::vector<cached_lease> leases;

  ~lease_table() {
    for (const cached_lease& l : leases) l.pool->ids.give_back(l.id);
  }
};

inline thread_local lease_table tls_leases;

}  // namespace detail

/// Records in a registry's first segment; each growth doubles the total.
inline constexpr unsigned kFirstSegmentRecords = 4;

/// The per-thread records a scheme scans (one reservation word, hazard
/// array or Hyaline-1 slot per id), and the ids guards lease them by.
/// `Rec` must be default-constructible (that is its unused state) and
/// cache-line aligned (`alignas(cache_line_size)`) so adjacent threads
/// never false-share.
template <class Rec>
class thread_registry {
 public:
  /// `ctrs` counts every claim that misses the calling thread's cache.
  explicit thread_registry(domain_counters& ctrs) : ctrs_(ctrs) {}

  ~thread_registry() { pool_->closed.store(true, std::memory_order_release); }

  thread_registry(const thread_registry&) = delete;
  thread_registry& operator=(const thread_registry&) = delete;

  /// Records claimed so far: every id a lease holds is below it. A scan
  /// reads it once. Missing a record claimed after that read is safe:
  /// the count is loaded and stored seq_cst, so the read precedes every
  /// seq_cst store the new holder makes in it, as if the scan had read
  /// the record and found it unused.
  unsigned size() const { return pool_->ids.count(); }

  Rec& operator[](unsigned id) { return recs_.at(id); }
  const Rec& operator[](unsigned id) const { return recs_.at(id); }

  /// Call `f` on every claimed record (size() read once).
  template <class F>
  void for_each(F&& f) {
    for (unsigned i = 0, n = size(); i < n; ++i) f(recs_.at(i));
  }

  /// Whether `pred` holds for every claimed record (size() read once);
  /// stops at the first that fails.
  template <class F>
  bool all_of(F&& pred) const {
    for (unsigned i = 0, n = size(); i < n; ++i) {
      if (!pred(recs_.at(i))) return false;
    }
    return true;
  }

  /// RAII checkout of one record for the calling thread. Guards hold one
  /// for their lifetime; nesting (two live guards, one thread, one
  /// domain) checks out a second record.
  class lease {
   public:
    explicit lease(thread_registry& reg) : pool_uid_(reg.pool_->uid) {
      std::vector<detail::cached_lease>& leases = detail::tls_leases.leases;
      for (detail::cached_lease& l : leases) {
        if (l.pool_uid == pool_uid_ && !l.in_use) {
          l.in_use = true;
          id_ = l.id;
          rec_ = static_cast<Rec*>(l.rec);
          return;
        }
      }
      // Miss (first guard against this domain, or a nested guard): before
      // claiming, prune entries whose domain died — a thread touching many
      // short-lived domains must not retain their ids (or scan their
      // entries) forever. Off the cached-hit hot path.
      std::erase_if(leases, [](const detail::cached_lease& l) {
        return !l.in_use && l.pool->closed.load(std::memory_order_acquire);
      });
      id_ = reg.pool_->ids.take([&reg](unsigned fresh) {
        if (fresh == reg.recs_.size()) reg.recs_.grow();
      });
      rec_ = &reg.recs_.at(id_);
      reg.ctrs_.on_tid_acquire();
      leases.push_back({pool_uid_, id_, true, rec_, reg.pool_});
    }

    ~lease() {
      for (detail::cached_lease& l : detail::tls_leases.leases) {
        if (l.pool_uid == pool_uid_ && l.id == id_) {
          l.in_use = false;
          return;
        }
      }
    }

    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;

    unsigned id() const { return id_; }
    Rec& rec() const { return *rec_; }

   private:
    std::uint64_t pool_uid_;
    unsigned id_;
    Rec* rec_;
  };

  /// Visit every record the *calling thread* has cached here, including
  /// ones live guards hold. The schemes' quiesce() paths clear lingering
  /// burst-entry reservations this way: only records this thread used,
  /// and no claim.
  template <class F>
  void for_each_cached(F&& f) {
    for (const detail::cached_lease& l : detail::tls_leases.leases) {
      if (l.pool_uid == pool_->uid) f(*static_cast<Rec*>(l.rec));
    }
  }

 private:
  domain_counters& ctrs_;
  /// Room for every unsigned id; each segment after the first is made by
  /// the claim that needs it.
  slot_directory<Rec> recs_{kFirstSegmentRecords, std::size_t{1} << 32};
  const std::shared_ptr<detail::id_pool> pool_ =
      std::make_shared<detail::id_pool>();
};

/// Per-(thread, owner) value cache: `local()` returns the calling thread's
/// `V`, creating (and registering) it on first use. The owner can visit
/// every instance with `for_each` (quiescent drains) and deletes them all
/// at destruction. Lookup is a linear scan of a small thread-local vector —
/// a thread rarely touches more than a couple of domains.
template <class V>
class tls_cache {
 public:
  tls_cache()
      : id_(next_unique_id()),
        alive_(std::make_shared<std::atomic<bool>>(true)) {}

  ~tls_cache() {
    alive_->store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lk(mu_);
    for (V* v : all_) delete v;
  }

  tls_cache(const tls_cache&) = delete;
  tls_cache& operator=(const tls_cache&) = delete;

  V& local() {
    std::vector<entry>& entries = tls_entries();
    for (const entry& e : entries) {
      if (e.owner == id_) return *static_cast<V*>(e.value);
    }
    // Miss (this thread's first use of this owner): prune entries of
    // destroyed owners before registering. Their values are already
    // freed, and the ids are process-unique so a stale entry can never be
    // matched — but letting them pile up would make the lookup scan, and
    // the memory a long-lived thread retains, grow with every domain ever
    // touched. Pruning here keeps the per-call hit path a bare scan.
    std::erase_if(entries, [](const entry& e) {
      return !e.owner_alive->load(std::memory_order_acquire);
    });
    V* v = new V;
    {
      std::lock_guard<std::mutex> lk(mu_);
      all_.push_back(v);
    }
    entries.push_back({id_, v, alive_});
    return *v;
  }

  template <class F>
  void for_each(F&& f) {
    std::lock_guard<std::mutex> lk(mu_);
    for (V* v : all_) f(*v);
  }

 private:
  struct entry {
    std::uint64_t owner;
    void* value;
    std::shared_ptr<const std::atomic<bool>> owner_alive;
  };

  static std::vector<entry>& tls_entries() {
    static thread_local std::vector<entry> entries;
    return entries;
  }

  const std::uint64_t id_;
  const std::shared_ptr<std::atomic<bool>> alive_;
  std::mutex mu_;
  std::vector<V*> all_;
};

}  // namespace hyaline::smr::core
