// The per-thread slab allocator behind the hooked_alloc seam
// (smr/core/slab_alloc.hpp): alignment and header invariants, LIFO block
// reuse, cross-thread free batching and owner-side draining, arena-cap
// heap fallback, and the routing priority contract (debug hooks beat the
// slab, so the poison/quarantine checks keep working unchanged).
//
// Node allocations bypass the slab under AddressSanitizer; these tests call
// slab::allocate/deallocate directly, so they run the slab in every build
// (blocks are recycled, never unmapped, so they cannot poison later
// tests).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/debug_alloc.hpp"
#include "smr/core/node_alloc.hpp"
#include "smr/core/slab_alloc.hpp"

namespace hyaline {
namespace {

namespace slab = smr::core::slab;

TEST(SlabAlloc, AlignmentAndOwnership) {
  std::vector<void*> blocks;
  for (std::size_t bytes : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                            std::size_t{17}, std::size_t{48}, std::size_t{64},
                            std::size_t{120}, std::size_t{512}}) {
    void* p = slab::allocate(bytes);
    ASSERT_NE(p, nullptr);
    // Payloads are carved on 16-byte boundaries behind a 16-byte header.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % slab::kGranule, 0u)
        << bytes;
    EXPECT_TRUE(slab::owns(p)) << bytes;
    std::memset(p, 0xab, bytes);  // the block must really be ours
    blocks.push_back(p);
  }
  // Oversized allocations take the heap path but keep the same header
  // protocol, so deallocate() routes them without a lookup.
  void* big = slab::allocate(slab::kMaxPayload + 1);
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(slab::owns(big));
  std::memset(big, 0xcd, slab::kMaxPayload + 1);
  slab::deallocate(big);
  for (void* p : blocks) slab::deallocate(p);
}

TEST(SlabAlloc, SameThreadFreeIsReusedLifo) {
  void* a = slab::allocate(48);
  std::memset(a, 0x11, 48);
  slab::deallocate(a);
  // Same size class, same thread: the local free list is LIFO, so the
  // very next allocation must hand the block straight back.
  void* b = slab::allocate(48);
  EXPECT_EQ(a, b);
  // A different size class must not see it.
  void* c = slab::allocate(256);
  EXPECT_NE(c, a);
  slab::deallocate(b);
  slab::deallocate(c);
}

TEST(SlabAlloc, DebugHooksTakePriorityOverTheSlab) {
  // Install the debug_alloc hooks: whether or not this build routes nodes
  // to the slab, every node allocated through the hooked_alloc seam must
  // go to the hooks, so the leak/double-free/poison machinery works
  // identically with and without the slab. (Unlike the process-wide
  // startup install, this test-local install is safe because it allocates
  // and frees its nodes entirely within the hooked window.)
  struct tnode : smr::core::reclaimable {
    std::uint64_t v = 0;
  };
  debug_alloc::reset();
  auto* old_alloc = smr::core::node_alloc_hook;
  auto* old_free = smr::core::node_free_hook;
  smr::core::node_alloc_hook = [](std::size_t n) {
    return debug_alloc::allocate(n);
  };
  smr::core::node_free_hook = [](void* p) { debug_alloc::deallocate(p); };

  const std::uint64_t before = slab::stats().chunks;
  auto* n = new tnode();
  EXPECT_EQ(debug_alloc::live_count(), 1u) << "hook was bypassed";
  n->v = 42;
  delete n;
  EXPECT_EQ(debug_alloc::live_count(), 0u);
  EXPECT_EQ(debug_alloc::double_frees(), 0u);
  EXPECT_EQ(debug_alloc::flush_quarantine(), 0u)
      << "write-after-free poison corrupted";
  EXPECT_EQ(slab::stats().chunks, before)
      << "slab carved a chunk for a hooked allocation";

  smr::core::node_alloc_hook = old_alloc;
  smr::core::node_free_hook = old_free;
}

TEST(SlabAlloc, RemoteFreesBatchAndDrainBackToTheOwner) {
  // Owner (this thread) allocates; a foreign thread frees. The frees must
  // come back to the owner's free lists via the batched MPSC remote
  // stack, and the owner must find them once its local list runs dry.
  constexpr std::size_t kBlocks = 3 * slab::kRemoteBatch;  // forces flushes
  constexpr std::size_t kBytes = 96;
  std::vector<void*> blocks;
  std::set<void*> ours;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    void* p = slab::allocate(kBytes);
    std::memset(p, 0x5a, kBytes);
    blocks.push_back(p);
    ours.insert(p);
  }
  const std::uint64_t flushes_before = slab::stats().remote_flushes;

  std::thread freer([&] {
    for (void* p : blocks) slab::deallocate(p);
    // Thread exit parks the freer's cache, which flushes any partially
    // filled remote buffer — all kBlocks are published after join.
  });
  freer.join();
  EXPECT_GT(slab::stats().remote_flushes, flushes_before)
      << "cross-thread frees never published a batched chain";

  // The owner's local list for this class is empty (everything was handed
  // out), so the next allocations must drain the remote stack and recycle
  // exactly the blocks the foreign thread returned.
  std::size_t recycled = 0;
  std::vector<void*> again;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    void* p = slab::allocate(kBytes);
    if (ours.count(p) != 0) ++recycled;
    again.push_back(p);
  }
  EXPECT_EQ(recycled, kBlocks)
      << "remotely freed blocks were not drained back to the owner";
  for (void* p : again) slab::deallocate(p);
}

TEST(SlabAlloc, ArenaCapFallsBackToTheHeap) {
  // Shrink the arena so the next chunk refill fails, then burn through the
  // current thread's bump space: allocations must switch to the null-owner
  // heap path instead of failing, and deallocate must route them back.
  slab::set_limit_bytes(0);
  const std::uint64_t external_before = slab::stats().external;
  std::vector<void*> held;
  bool saw_external = false;
  for (int i = 0; i < 4096 && !saw_external; ++i) {
    void* p = slab::allocate(512);  // largest class drains bump fastest
    ASSERT_NE(p, nullptr);
    std::memset(p, 0x77, 512);
    EXPECT_TRUE(slab::owns(p));
    held.push_back(p);
    saw_external = slab::stats().external > external_before;
  }
  EXPECT_TRUE(saw_external)
      << "arena cap never engaged the heap fallback path";
  for (void* p : held) slab::deallocate(p);
  slab::set_limit_bytes(std::size_t{1} << 30);  // restore the default
}

TEST(SlabAlloc, StatsMoveForward) {
  const slab::slab_stats a = slab::stats();
  void* p = slab::allocate(32);
  slab::deallocate(p);
  const slab::slab_stats b = slab::stats();
  EXPECT_GE(b.chunks, a.chunks);
  EXPECT_GE(b.external, a.external);
  EXPECT_GE(b.remote_flushes, a.remote_flushes);
}

}  // namespace
}  // namespace hyaline
