// Per-thread slab allocator for SMR nodes.
//
// Sits behind the `hooked_alloc` seam in node_alloc.hpp: in every build but
// AddressSanitizer's (kRoutesNodes), each node allocation that is not
// intercepted by a debug hook is served from a
// thread-local size-class cache instead of the global heap. The design is a
// small tcmalloc-style front end specialized for the allocation profile of
// lock-free structures (many small fixed-size nodes, freed by *other*
// threads after a reclamation scan):
//
//   - 32 size classes at 16-byte granularity cover payloads up to 512 bytes;
//     anything larger (or any allocation made after the global arena cap is
//     hit) falls back to `::operator new` with the same 16-byte header so
//     deallocation needs no out-of-band lookup.
//   - Each thread owns a `tcache` of per-class LIFO free lists fed from
//     cache-aligned 64 KiB chunks carved by bump pointer. The free-list next
//     pointer lives in the payload's first word, so a free block costs no
//     extra memory.
//   - A free from a foreign thread is *batched*: the freeing thread buffers
//     blocks per destination cache and CAS-pushes a whole chain onto the
//     owner's MPSC `remote` stack once the buffer fills. The owner drains
//     that stack into its local lists only when a local list runs dry, so
//     the cross-thread traffic amortizes to one CAS per `kRemoteBatch`
//     frees and the hot local path touches no shared cache line.
//   - Caches of exited threads are parked on an orphan list and adopted by
//     the next new thread; caches and chunks are never freed while the
//     process lives, so a stale `owner` pointer in a block header can never
//     dangle.
//
// The routing is a build-time constant, so the allocation and the
// deallocation of a node always take the same path. Under AddressSanitizer
// nodes bypass the slab (block recycling would mask use-after-free, the
// very bug class the debug hooks exist to catch); the slab's own tests
// call allocate/deallocate directly in every build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#include "common/align.hpp"
#include "obs/trace.hpp"

namespace hyaline::smr::core::slab {

inline constexpr std::size_t kGranule = 16;
inline constexpr std::size_t kMaxPayload = 512;
inline constexpr std::size_t kNumClasses = kMaxPayload / kGranule;  // 32
inline constexpr std::size_t kChunkBytes = 64 * 1024;
inline constexpr std::size_t kHeaderBytes = 16;
inline constexpr std::uint32_t kMagic = 0x51ab51ab;
/// Foreign frees buffered per destination before one CAS publishes a chain.
inline constexpr std::size_t kRemoteBatch = 32;
/// Destination caches a single thread buffers remote frees for at once.
inline constexpr std::size_t kRemoteBuffers = 4;

/// Whether hooked_alloc routes nodes here: off under AddressSanitizer.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kRoutesNodes = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kRoutesNodes = false;
#else
inline constexpr bool kRoutesNodes = true;
#endif
#else
inline constexpr bool kRoutesNodes = true;
#endif

struct tcache;

/// Every block (slab or fallback) is preceded by 16 bytes of header. For
/// slab blocks `owner` names the cache whose chunk the block was carved
/// from; for heap-fallback blocks `owner` is null and `cls` is unused.
struct block_header {
  tcache* owner;
  std::uint32_t cls;
  std::uint32_t magic;
};
static_assert(sizeof(block_header) == kHeaderBytes);

namespace detail {

struct remote_buffer {
  tcache* dest = nullptr;
  void* head = nullptr;   // chain linked through payload first words
  void* tail = nullptr;
  std::size_t count = 0;
};

inline void*& next_of(void* block) { return *static_cast<void**>(block); }

}  // namespace detail

/// Per-thread allocation cache. Constructed on a thread's first slab
/// allocation (or adopted from the orphan list), parked at thread exit.
struct alignas(cache_line_size) tcache {
  void* free_list[kNumClasses] = {};
  std::size_t free_count[kNumClasses] = {};
  /// MPSC stack of blocks freed by other threads (heads of batched chains).
  std::atomic<void*> remote{nullptr};
  /// Sender-side batching of frees destined for *other* caches.
  detail::remote_buffer rbuf[kRemoteBuffers];
  std::byte* bump = nullptr;
  std::byte* bump_end = nullptr;
  tcache* next_orphan = nullptr;
};

struct slab_stats {
  std::uint64_t chunks;          // 64 KiB chunks carved from the heap
  std::uint64_t external;        // allocations served by ::operator new
  std::uint64_t adopted;         // orphan caches re-attached to new threads
  std::uint64_t parked;          // caches parked by exiting threads
  std::uint64_t remote_flushes;  // batched cross-thread chain publishes
};

namespace detail {

struct arena {
  std::mutex mu;
  std::vector<void*> chunks;          // owned; freed at process exit only
  tcache* orphans = nullptr;          // parked caches awaiting adoption
  std::vector<tcache*> all_caches;    // owned
  std::size_t limit_bytes = std::size_t{1} << 30;
  std::atomic<std::size_t> used_bytes{0};
  std::atomic<std::uint64_t> n_chunks{0};
  std::atomic<std::uint64_t> n_external{0};
  std::atomic<std::uint64_t> n_adopted{0};
  std::atomic<std::uint64_t> n_parked{0};
  std::atomic<std::uint64_t> n_remote_flushes{0};

  ~arena() {
    for (tcache* c : all_caches) delete c;
    for (void* p : chunks) ::operator delete(p, std::align_val_t{cache_line_size});
  }
};

inline arena& the_arena() {
  static arena a;  // leaked-on-exit semantics live in ~arena ordering: TLS
                   // destructors of worker threads run before main exits, so
                   // parked caches are already chained when this dies.
  return a;
}

inline std::size_t class_of(std::size_t bytes) {
  return (bytes + kGranule - 1) / kGranule - 1;
}

inline std::size_t class_bytes(std::size_t cls) { return (cls + 1) * kGranule; }

void park_cache(tcache* c);

/// TLS anchor: parks the cache when its thread exits. The cache itself is
/// owned by the arena and survives, so foreign blocks whose headers point at
/// it stay valid forever.
struct tls_slot {
  tcache* cache = nullptr;
  ~tls_slot() {
    if (cache != nullptr) park_cache(cache);
  }
};

inline thread_local tls_slot tls;

inline void park_cache_locked(arena& a, tcache* c) {
  c->next_orphan = a.orphans;
  a.orphans = c;
  a.n_parked.fetch_add(1, std::memory_order_relaxed);
}

inline void park_cache(tcache* c) {
  // Flush any buffered foreign frees before parking: a parked cache's
  // buffers are not visible to their destinations until adoption otherwise.
  arena& a = the_arena();
  for (remote_buffer& b : c->rbuf) {
    if (b.dest == nullptr || b.count == 0) continue;
    void* head = b.dest->remote.load(std::memory_order_relaxed);
    do {
      next_of(b.tail) = head;
    } while (!b.dest->remote.compare_exchange_weak(
        head, b.head, std::memory_order_release, std::memory_order_relaxed));
    a.n_remote_flushes.fetch_add(1, std::memory_order_relaxed);
    b = remote_buffer{};
  }
  std::lock_guard<std::mutex> lk(a.mu);
  park_cache_locked(a, c);
}

inline tcache* my_cache() {
  tcache* c = tls.cache;
  if (c != nullptr) return c;
  arena& a = the_arena();
  {
    std::lock_guard<std::mutex> lk(a.mu);
    if (a.orphans != nullptr) {
      c = a.orphans;
      a.orphans = c->next_orphan;
      c->next_orphan = nullptr;
      a.n_adopted.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (c == nullptr) {
    c = new tcache();
    std::lock_guard<std::mutex> lk(a.mu);
    a.all_caches.push_back(c);
  }
  tls.cache = c;
  return c;
}

/// Carve a fresh chunk; returns false when the arena cap is reached (the
/// caller then falls back to the heap).
inline bool refill_bump(tcache* c) {
  arena& a = the_arena();
  std::size_t used = a.used_bytes.load(std::memory_order_relaxed);
  do {
    if (used + kChunkBytes > a.limit_bytes) return false;
  } while (!a.used_bytes.compare_exchange_weak(used, used + kChunkBytes,
                                               std::memory_order_relaxed));
  void* chunk = ::operator new(kChunkBytes, std::align_val_t{cache_line_size});
  {
    std::lock_guard<std::mutex> lk(a.mu);
    a.chunks.push_back(chunk);
  }
  a.n_chunks.fetch_add(1, std::memory_order_relaxed);
  c->bump = static_cast<std::byte*>(chunk);
  c->bump_end = c->bump + kChunkBytes;
  return true;
}

/// Move every remotely-freed block into the owner's local lists. Only the
/// owner calls this (MPSC pop side).
inline void drain_remote(tcache* c) {
  void* n = c->remote.exchange(nullptr, std::memory_order_acquire);
  std::size_t drained = 0;
  while (n != nullptr) {
    void* nx = next_of(n);
    auto* h = reinterpret_cast<block_header*>(static_cast<std::byte*>(n) -
                                              kHeaderBytes);
    next_of(n) = c->free_list[h->cls];
    c->free_list[h->cls] = n;
    ++c->free_count[h->cls];
    ++drained;
    n = nx;
  }
  if (drained != 0) obs::emit(obs::event::slab_remote_drain, drained);
}

inline void* slow_alloc(tcache* c, std::size_t cls) {
  drain_remote(c);
  if (c->free_list[cls] != nullptr) {
    void* p = c->free_list[cls];
    c->free_list[cls] = next_of(p);
    --c->free_count[cls];
    return p;
  }
  const std::size_t need = kHeaderBytes + class_bytes(cls);
  if (static_cast<std::size_t>(c->bump_end - c->bump) < need) {
    if (!refill_bump(c)) return nullptr;  // arena cap: caller uses the heap
  }
  auto* h = reinterpret_cast<block_header*>(c->bump);
  h->owner = c;
  h->cls = static_cast<std::uint32_t>(cls);
  h->magic = kMagic;
  void* payload = c->bump + kHeaderBytes;
  c->bump += need;
  return payload;
}

/// Queue a block for its foreign owner, publishing a whole chain when the
/// per-destination buffer fills.
inline void remote_free(tcache* me, tcache* dest, void* payload) {
  arena& a = the_arena();
  remote_buffer* slot = nullptr;
  for (remote_buffer& b : me->rbuf) {
    if (b.dest == dest) {
      slot = &b;
      break;
    }
    if (slot == nullptr && b.dest == nullptr) slot = &b;
  }
  if (slot == nullptr) {
    // All buffers busy with other destinations: evict the fullest one.
    slot = &me->rbuf[0];
    for (remote_buffer& b : me->rbuf) {
      if (b.count > slot->count) slot = &b;
    }
  }
  if (slot->dest != dest && slot->dest != nullptr) {
    void* head = slot->dest->remote.load(std::memory_order_relaxed);
    do {
      next_of(slot->tail) = head;
    } while (!slot->dest->remote.compare_exchange_weak(
        head, slot->head, std::memory_order_release,
        std::memory_order_relaxed));
    a.n_remote_flushes.fetch_add(1, std::memory_order_relaxed);
    *slot = remote_buffer{};
  }
  if (slot->dest == nullptr) slot->dest = dest;
  next_of(payload) = slot->head;
  slot->head = payload;
  if (slot->tail == nullptr) slot->tail = payload;
  if (++slot->count >= kRemoteBatch) {
    void* head = dest->remote.load(std::memory_order_relaxed);
    do {
      next_of(slot->tail) = head;
    } while (!dest->remote.compare_exchange_weak(head, slot->head,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed));
    a.n_remote_flushes.fetch_add(1, std::memory_order_relaxed);
    *slot = remote_buffer{};
  }
}

}  // namespace detail

/// Arena cap in bytes (default 1 GiB). Test hook for the exhaustion path.
inline void set_limit_bytes(std::size_t bytes) {
  detail::the_arena().limit_bytes = bytes;
}

inline slab_stats stats() {
  detail::arena& a = detail::the_arena();
  return {a.n_chunks.load(std::memory_order_relaxed),
          a.n_external.load(std::memory_order_relaxed),
          a.n_adopted.load(std::memory_order_relaxed),
          a.n_parked.load(std::memory_order_relaxed),
          a.n_remote_flushes.load(std::memory_order_relaxed)};
}

/// Allocate `bytes` for a node. Never returns null (heap fallback throws on
/// OOM like plain `new`).
inline void* allocate(std::size_t bytes) {
  if (bytes <= kMaxPayload) {
    tcache* c = detail::my_cache();
    const std::size_t cls = detail::class_of(bytes);
    void* p = c->free_list[cls];
    if (p != nullptr) {  // hot path: pop the local free list
      c->free_list[cls] = detail::next_of(p);
      --c->free_count[cls];
      return p;
    }
    p = detail::slow_alloc(c, cls);
    if (p != nullptr) return p;
  }
  // Oversized or arena-capped: heap block with a null-owner header so
  // deallocate() can route it without any table lookup.
  detail::the_arena().n_external.fetch_add(1, std::memory_order_relaxed);
  auto* raw = static_cast<std::byte*>(::operator new(kHeaderBytes + bytes));
  auto* h = reinterpret_cast<block_header*>(raw);
  h->owner = nullptr;
  h->cls = 0;
  h->magic = kMagic;
  return raw + kHeaderBytes;
}

inline void deallocate(void* payload) {
  auto* h = reinterpret_cast<block_header*>(static_cast<std::byte*>(payload) -
                                            kHeaderBytes);
  if (h->owner == nullptr) {
    ::operator delete(static_cast<void*>(h));
    return;
  }
  tcache* me = detail::my_cache();
  if (h->owner == me) {
    detail::next_of(payload) = me->free_list[h->cls];
    me->free_list[h->cls] = payload;
    ++me->free_count[h->cls];
    return;
  }
  detail::remote_free(me, h->owner, payload);
}

/// True when `payload` was produced by `allocate` (slab or fallback): the
/// header magic survives in both paths.
inline bool owns(void* payload) {
  auto* h = reinterpret_cast<block_header*>(static_cast<std::byte*>(payload) -
                                            kHeaderBytes);
  return h->magic == kMagic;
}

}  // namespace hyaline::smr::core::slab
