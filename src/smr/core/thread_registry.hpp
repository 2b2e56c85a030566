// Transparent thread identity for the SMR schemes.
//
// API v1 required every call site to hand-thread a `tid` into each guard.
// API v2 makes thread identity an implementation detail: a guard leases a
// thread id (or slot) from its domain's `tid_pool` through a thread-local
// cache, so the first guard a thread takes against a domain pays one
// mutex-protected pool acquire and every later guard is a small TLS scan.
// A lease is checked in when its guard dies but stays *cached* by the
// owning thread for instant reuse; the pool gets it back only when the
// thread exits. Nested guards on one thread check out distinct tids, which
// preserves the "one reservation per record" invariant of the baseline
// schemes (EBR/IBR/HP/HE) and the 1:1 slot mapping of Hyaline-1.
//
// Also here:
//   - thread_registry<Rec>: the per-thread record array those schemes scan
//     (one reservation word / hazard array per tid), now owning the pool
//     its guards lease from;
//   - tls_cache<V>: per-(thread, domain) value cache used by the Hyaline
//     variants for their thread-local batch builders;
//   - thread_hint(), the unbounded per-thread integer for slot placement,
//     through smr/stats.hpp: it lives below it, in core/thread_hint.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "smr/stats.hpp"

namespace hyaline::smr::core {

/// Process-unique id source shared by pools, domains, and TLS caches.
inline std::uint64_t next_unique_id() {
  static std::atomic<std::uint64_t> ids{1};
  return ids.fetch_add(1, std::memory_order_relaxed);
}

/// Fixed-capacity pool of thread ids. Hands out the lowest free id so unit
/// tests see deterministic assignment. Throws (instead of corrupting a
/// neighbour's record) when the capacity is exhausted.
class tid_pool {
 public:
  explicit tid_pool(unsigned capacity)
      : id_(next_unique_id()), used_(capacity, false) {}

  tid_pool(const tid_pool&) = delete;
  tid_pool& operator=(const tid_pool&) = delete;

  std::uint64_t id() const { return id_; }
  unsigned capacity() const { return static_cast<unsigned>(used_.size()); }

  /// Attach the owning domain's event counters: every slow-path checkout
  /// (pool acquire, as opposed to a TLS cache hit) is counted.
  void attach(domain_counters* c) { ctrs_ = c; }

  unsigned acquire() {
    std::lock_guard<std::mutex> lk(mu_);
    for (unsigned i = 0; i < used_.size(); ++i) {
      if (!used_[i]) {
        used_[i] = true;
        if (ctrs_ != nullptr) ctrs_->on_tid_acquire();
        return i;
      }
    }
    throw std::runtime_error(
        "smr: thread id pool exhausted (capacity " +
        std::to_string(used_.size()) +
        "): ids are leased per (live thread, domain) — each live thread "
        "that ever held a guard keeps its id cached until it exits, and "
        "nested guards lease one id each — so max_threads must cover "
        "every such thread, not just the concurrently active ones");
  }

  void release(unsigned tid) noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    used_[tid] = false;
  }

  /// The owning domain is going away: lets the per-thread lease caches
  /// prune their entries for this pool instead of holding them (and this
  /// object, via shared_ptr) until thread exit.
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  const std::uint64_t id_;
  std::mutex mu_;
  std::vector<bool> used_;
  std::atomic<bool> closed_{false};
  domain_counters* ctrs_ = nullptr;
};

namespace detail {

struct cached_lease {
  std::uint64_t pool_id;
  unsigned tid;
  bool in_use;
  std::shared_ptr<tid_pool> pool;  // keeps the pool alive past its domain
};

/// Per-thread lease table; the destructor returns every cached tid to its
/// pool when the thread exits, so short-lived threads recycle ids.
struct lease_table {
  std::vector<cached_lease> leases;

  ~lease_table() {
    for (const cached_lease& l : leases) l.pool->release(l.tid);
  }
};

inline thread_local lease_table tls_leases;

}  // namespace detail

/// Visit every tid the *calling thread* has cached against `pool`,
/// including ids currently checked out by live guards. Used by the schemes'
/// quiesce() paths to clear lingering burst-entry reservations: iterating
/// the cache (instead of leasing a fresh id) touches only ids this thread
/// actually used and can never exhaust the pool.
template <class F>
inline void for_each_cached_tid(const std::shared_ptr<tid_pool>& pool,
                                F&& f) {
  const std::uint64_t pool_id = pool->id();
  for (const detail::cached_lease& l : detail::tls_leases.leases) {
    if (l.pool_id == pool_id) f(l.tid);
  }
}

/// RAII checkout of the calling thread's tid for one pool. Guards hold one
/// of these for their lifetime; nesting (two live guards, one thread, one
/// domain) checks out a second tid.
class tid_lease {
 public:
  explicit tid_lease(const std::shared_ptr<tid_pool>& pool)
      : pool_id_(pool->id()) {
    for (detail::cached_lease& l : detail::tls_leases.leases) {
      if (l.pool_id == pool_id_ && !l.in_use) {
        l.in_use = true;
        tid_ = l.tid;
        return;
      }
    }
    // Miss (first guard against this domain, or a nested guard): before
    // acquiring a fresh id, prune entries whose domain died — a thread
    // touching many short-lived domains must not retain their pools (or
    // scan their entries) forever. Off the cached-hit hot path.
    std::erase_if(detail::tls_leases.leases,
                  [](const detail::cached_lease& l) {
                    return !l.in_use && l.pool->closed();
                  });
    tid_ = pool->acquire();
    detail::tls_leases.leases.push_back({pool_id_, tid_, true, pool});
  }

  ~tid_lease() {
    for (detail::cached_lease& l : detail::tls_leases.leases) {
      if (l.pool_id == pool_id_ && l.tid == tid_) {
        l.in_use = false;
        return;
      }
    }
  }

  tid_lease(const tid_lease&) = delete;
  tid_lease& operator=(const tid_lease&) = delete;

  unsigned tid() const { return tid_; }

 private:
  std::uint64_t pool_id_;
  unsigned tid_;
};

/// Owns `n` default-constructed records indexed by thread id, plus the pool
/// guards lease those ids from. The record type is supplied by the scheme
/// and must be default-constructible and cache-line aligned
/// (`alignas(cache_line_size)` on the record) so adjacent threads never
/// false-share.
template <class Rec>
class thread_registry {
 public:
  explicit thread_registry(unsigned n)
      : n_(n), recs_(new Rec[n]), pool_(std::make_shared<tid_pool>(n)) {}

  ~thread_registry() { pool_->close(); }

  thread_registry(const thread_registry&) = delete;
  thread_registry& operator=(const thread_registry&) = delete;

  unsigned size() const { return n_; }

  /// The lease pool guards check their tid out of.
  const std::shared_ptr<tid_pool>& pool() const { return pool_; }

  Rec& operator[](unsigned tid) { return recs_[tid]; }
  const Rec& operator[](unsigned tid) const { return recs_[tid]; }

  Rec* begin() { return recs_.get(); }
  Rec* end() { return recs_.get() + n_; }
  const Rec* begin() const { return recs_.get(); }
  const Rec* end() const { return recs_.get() + n_; }

 private:
  unsigned n_;
  std::unique_ptr<Rec[]> recs_;
  std::shared_ptr<tid_pool> pool_;
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
