// Overridable allocation + typed destruction for SMR node headers.
//
// Every scheme's intrusive `node` type derives from `reclaimable`, which
// provides two services:
//
//   1. Hooked allocation (`hooked_alloc`): class-level operator new/delete
//      route through a process-wide hook pair. With the hooks unset (the
//      default, and the only mode benchmarks use) allocation is exactly
//      `::operator new` / `::operator delete`. The test suite installs
//      `debug_alloc`-backed hooks before spawning threads, which makes every
//      node the data structures allocate — including Hyaline's padding
//      dummies — leak-, double-free- and write-after-free-checked without
//      the structures knowing (see tests/registry_matrix_test.cpp).
//
//   2. Typed destruction (`smr_dtor`): a type-erased destroy thunk that
//      `guard::retire<T>()` installs at retirement time. Deallocation may
//      run much later, on another thread, long after the retiring call
//      frame is gone — the thunk carries the concrete node type across
//      that gap, so one domain can reclaim any mix of node types (API v2's
//      shared-domain guarantee; the v1 per-domain `set_free_fn` supported
//      exactly one type and was silently overwritten by a second).
//
// The hooks are read on every node allocation; install them once, at
// startup, before any node exists, so allocate/free pairs always agree.
// When no hook is installed the per-thread slab allocator serves the
// request, except under AddressSanitizer (slab::kRoutesNodes, see
// core/slab_alloc.hpp) — routing priority is debug hook > slab > global
// heap.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>

#include "obs/trace.hpp"
#include "smr/core/slab_alloc.hpp"

namespace hyaline::smr::core {

using node_alloc_fn = void* (*)(std::size_t);
using node_free_fn = void (*)(void*);

inline node_alloc_fn node_alloc_hook = nullptr;  // null = ::operator new
inline node_free_fn node_free_hook = nullptr;    // null = ::operator delete

/// Empty base class providing the hooked class-level new/delete. Derived
/// node types keep their layout (empty-base optimization).
struct hooked_alloc {
  static void* operator new(std::size_t n) {
    if (node_alloc_hook != nullptr) return node_alloc_hook(n);
    if constexpr (slab::kRoutesNodes) return slab::allocate(n);
    return ::operator new(n);
  }
  static void operator delete(void* p) {
    if (node_free_hook != nullptr) {
      node_free_hook(p);
    } else if constexpr (slab::kRoutesNodes) {
      slab::deallocate(p);
    } else {
      ::operator delete(p);
    }
  }
  static void operator delete(void* p, std::size_t) {
    hooked_alloc::operator delete(p);
  }
};

/// Base of every scheme's node header: hooked allocation plus the typed
/// destroy thunk. One extra word per node buys N node types per domain.
/// `obs_retire_ticks` is the retire->free lag stamp (smr/stats.hpp):
/// written at retire and read at free only while obs::lag_tracking() is
/// on; zero means "never stamped" and is skipped by the lag histogram.
struct reclaimable : hooked_alloc {
  void (*smr_dtor)(reclaimable*) = nullptr;
  std::uint64_t obs_retire_ticks = 0;
};

/// The type-erased destroy thunk for a concrete node type `T` (any type
/// derived from a scheme's node header). Installed by guard::retire<T>().
template <class T>
inline void (*dtor_thunk())(reclaimable*) {
  static_assert(std::is_base_of_v<reclaimable, T>,
                "retired objects must derive from the scheme's node type");
  return +[](reclaimable* base) { delete static_cast<T*>(base); };
}

/// Destroy a retired node through its thunk. Every retire path installs
/// one (guard::retire<T>), so a null thunk here means a node reached
/// reclamation without going through retire — fail loudly rather than
/// silently running the wrong destructor.
template <class Node>
inline void destroy(Node* n) {
  assert(n->smr_dtor != nullptr &&
         "retired node missing its typed destroy thunk");
  obs::emit(obs::event::free_node, reinterpret_cast<std::uintptr_t>(n));
  n->smr_dtor(n);
}

}  // namespace hyaline::smr::core
