// The uniform SMR domain facade — API v2.
//
// Every reclamation scheme in this library (the four Hyaline variants and
// the five baselines) implements the same compile-time interface so the
// lock-free data structures in src/ds can be instantiated over any of
// them. v2 makes the facade typed, composable, and self-describing:
//
//   class D {
//     static constexpr smr::caps caps{...};  // capability tags (caps.hpp)
//     struct node : smr::core::reclaimable;  // intrusive header base
//     template <class T> using protected_ptr = ...;  // protect() handle
//     class guard {                          // RAII enter/leave
//       explicit guard(D& dom);              // transparent thread identity:
//                                            //   the guard leases its
//                                            //   record/slot internally
//       ~guard();                            // leave
//       template <class T>
//       protected_ptr<T> protect(const std::atomic<T*>& src);
//       template <class T> void retire(T* n);  // typed two-step
//                                              // reclamation, step 1; the
//                                              // per-type deleter is
//                                              // captured here
//     };
//     void on_alloc(node* n);                // birth-era initialization
//     smr::stats& counters();
//     void drain();                          // quiescent-state cleanup
//   };
//
// What changed from v1 and why:
//   - retire is typed: `g.retire(p)` records a type-erased destroy thunk
//     per node, so N structures with different node types can share one
//     domain. v1's `set_free_fn` (one global deleter per domain) is gone —
//     two structures over one domain used to silently overwrite each
//     other's deleter.
//   - protect returns an RAII `protected_ptr<T>` that leases a hazard slot
//     from the guard where the scheme publishes pointers (HP/HE) and is a
//     zero-cost wrapper everywhere else. v1's hand-numbered
//     `protect(idx, src)` is gone; the per-scheme slot budget is the
//     compile-time `max_hazards` query (smr::caps.hpp), static_asserted by
//     each structure at instantiation.
//   - guards take no tid: thread identity is leased from a thread-local
//     cache (core/thread_registry.hpp). The paper's transparency property
//     — threads use reclamation without registration ceremony — now holds
//     for every scheme's public API, not just Hyaline's. Nor does any
//     scheme take a thread capacity: the per-thread records of EBR, IBR,
//     HP, HE and Hyaline-1 are claimed as threads arrive, and each scan
//     walks the records claimed so far.
//   - informal restrictions (HP/HE can't run Bonsai, robust schemes can't
//     run Harris's original list, clean-edge traversal) are `D::caps`
//     fields consumed by the registry, the structures, and this concept.
#pragma once

#include <atomic>
#include <concepts>

#include "smr/caps.hpp"
#include "smr/core/node_alloc.hpp"

namespace hyaline::smr {

/// Compile-time check that a scheme implements the v2 facade. Enforced (by
/// static_assert) for every registered scheme in harness/registry.cpp and
/// for the domain parameter of every data structure in src/ds — the single
/// source of truth for the public API, not documentation.
template <class D>
concept Domain = requires(D d, typename D::node* n,
                          const std::atomic<typename D::node*>& src) {
  typename D::node;
  typename D::guard;
  requires std::derived_from<typename D::node, core::reclaimable>;
  requires std::same_as<std::remove_cv_t<decltype(D::caps)>, caps>;
  requires std::constructible_from<typename D::guard, D&>;
  { d.counters() };
  { d.on_alloc(n) };
  { d.drain() };
  requires requires(typename D::guard g) {
    { g.protect(src).get() } -> std::same_as<typename D::node*>;
    { g.retire(n) };
  };
  requires max_hazards_v<D> >= 1;
};

}  // namespace hyaline::smr
