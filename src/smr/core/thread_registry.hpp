// Transparent thread identity for the SMR schemes: one lease table for
// every per-thread record a domain keeps.
//
// API v1 required every call site to hand-thread a `tid` into each guard.
// API v2 makes thread identity an implementation detail: a domain keeps
// its per-thread records in a `thread_registry`, and each thread finds
// the ones it holds in a thread-local lease table, so the first claim a
// thread makes against a registry pays one mutex-protected take and every
// later lookup is a small TLS scan. Records are held two ways:
//   - a guard's `lease` (EBR, IBR, HP, HE reservations, Hyaline-1 slots)
//     is checked in when the guard dies but stays cached by the thread
//     for instant reuse; nested guards on one thread check out distinct
//     records, which preserves the "one reservation per record" invariant
//     of EBR/IBR/HP/HE and the 1:1 slot mapping of Hyaline-1;
//   - `local()` (the Hyaline family's batch builders) is the thread's one
//     record for its whole life.
// The registry gets an id back only when its thread exits, and the next
// thread to claim takes the id over with its record as it stands: an
// exited thread's partial batch or parked slot presence passes on instead
// of waiting for a drain.
//
// The registry has no capacity: nobody declares how many threads will
// come. A claim takes the lowest free id (core::lowest_free_ids, the
// allocator thread_hint() uses too); an id no thread held before gets a
// fresh record, made under the same mutex in a slot_directory that grows
// by doubling, so a record never moves and a lease holds a plain pointer
// to it. Because ids are lowest-free, size() (one past the highest id
// ever claimed) is the peak number of records in use at once, and each
// scan reads it once and walks only those records.
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

namespace detail {

/// What a thread's lease table may outlive its domain with: the ids, so a
/// thread that exits later can still hand its own back. Every entry holds
/// its pool, so no new pool can take the address while an entry matches
/// it: the address names the registry.
struct id_pool {
  lowest_free_ids ids;
  /// The domain is gone: lease tables prune their entries for it instead
  /// of holding them (and this object) until thread exit.
  std::atomic<bool> closed{false};
};

/// How the thread holds an entry's id: checked in by its last guard
/// (free for the next), by a live guard, or by local() for good.
enum class hold : std::uint8_t { cached, guard, thread };

struct cached_lease {
  std::shared_ptr<id_pool> pool;
  void* rec;  // the id's record; valid while the domain lives
  unsigned id;
  hold how;
};

/// Per-thread lease table; the destructor returns every id the thread
/// holds when it exits, so short-lived threads recycle ids and records.
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
/// array, Hyaline-1 slot or batch builder per id), and the ids threads
/// claim them by. `Rec` must be default-constructible (that is its unused
/// state) and cache-line aligned (`alignas(cache_line_size)`) so adjacent
/// threads never false-share. A registry's records are either leased by
/// guards or held through local(), not both.
template <class Rec>
class thread_registry {
 public:
  /// `ctrs` counts every guard's claim that misses the calling thread's
  /// cache (local() claims are not counted).
  explicit thread_registry(domain_counters& ctrs) : ctrs_(ctrs) {}

  ~thread_registry() { pool_->closed.store(true, std::memory_order_release); }

  thread_registry(const thread_registry&) = delete;
  thread_registry& operator=(const thread_registry&) = delete;

  /// Records claimed so far: every id a thread holds is below it. A scan
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
    explicit lease(thread_registry& reg) : pool_(reg.pool_.get()) {
      for (detail::cached_lease& l : detail::tls_leases.leases) {
        if (l.pool.get() == pool_ && l.how == detail::hold::cached) {
          l.how = detail::hold::guard;
          id_ = l.id;
          rec_ = static_cast<Rec*>(l.rec);
          return;
        }
      }
      // Miss: the first guard against this domain, or a nested guard.
      const detail::cached_lease& l = reg.claim(detail::hold::guard);
      id_ = l.id;
      rec_ = static_cast<Rec*>(l.rec);
      reg.ctrs_.on_tid_acquire();
    }

    ~lease() {
      for (detail::cached_lease& l : detail::tls_leases.leases) {
        if (l.pool.get() == pool_ && l.id == id_) {
          l.how = detail::hold::cached;
          return;
        }
      }
    }

    lease(const lease&) = delete;
    lease& operator=(const lease&) = delete;

    unsigned id() const { return id_; }
    Rec& rec() const { return *rec_; }

   private:
    const detail::id_pool* pool_;
    unsigned id_;
    Rec* rec_;
  };

  /// The calling thread's record for the rest of its life, claimed on its
  /// first call. At thread exit the id goes back like a lease's, and the
  /// next thread to claim it takes the record over as it stands.
  Rec& local() {
    for (const detail::cached_lease& l : detail::tls_leases.leases) {
      if (l.pool.get() == pool_.get() && l.how == detail::hold::thread) {
        return *static_cast<Rec*>(l.rec);
      }
    }
    return *static_cast<Rec*>(claim(detail::hold::thread).rec);
  }

  /// Visit every record the *calling thread* holds here, including ones
  /// live guards hold, and claim none. The schemes' quiesce() paths clear
  /// lingering burst-entry reservations this way, and Hyaline's flush()
  /// finds the thread's builder.
  template <class F>
  void for_each_cached(F&& f) {
    // By index: `f` may free nodes whose destructors claim records, which
    // grows the table.
    std::vector<detail::cached_lease>& leases = detail::tls_leases.leases;
    for (std::size_t i = 0; i < leases.size(); ++i) {
      if (leases[i].pool.get() == pool_.get()) {
        f(*static_cast<Rec*>(leases[i].rec));
      }
    }
  }

 private:
  /// A miss: prune the entries of dead domains first — a thread touching
  /// many short-lived domains must not keep their ids (or scan their
  /// entries) forever; off the cached-hit hot path. Then take the lowest
  /// free id and cache it, held `how`.
  const detail::cached_lease& claim(detail::hold how) {
    std::vector<detail::cached_lease>& leases = detail::tls_leases.leases;
    std::erase_if(leases, [](const detail::cached_lease& l) {
      return l.how != detail::hold::guard &&
             l.pool->closed.load(std::memory_order_acquire);
    });
    const unsigned id = pool_->ids.take([this](unsigned fresh) {
      if (fresh == recs_.size()) recs_.grow();
    });
    leases.push_back({pool_, &recs_.at(id), id, how});
    return leases.back();
  }

  domain_counters& ctrs_;
  /// Room for every unsigned id; each segment after the first is made by
  /// the claim that needs it.
  slot_directory<Rec> recs_{kFirstSegmentRecords, std::size_t{1} << 32};
  const std::shared_ptr<detail::id_pool> pool_ =
      std::make_shared<detail::id_pool>();
};

}  // namespace hyaline::smr::core
