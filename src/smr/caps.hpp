// Capability tags every reclamation scheme advertises at compile time.
//
// API v1 spread these restrictions across informal channels: a
// `needs_clean_edges` boolean some schemes defined and others did not,
// hand-maintained scheme lists in the harness registry, and comments in
// the data-structure headers ("HP/HE cannot run Bonsai"). API v2 promotes
// them to one `smr::caps` value per scheme — `D::caps` — that the runtime
// registry, the `Domain` concept, the data structures' static_asserts, and
// the tests all consume, so an illegal (scheme, structure) pairing fails
// at compile time instead of corrupting memory at run time.
#pragma once

namespace hyaline::smr {

/// What a scheme can (and cannot) do. The paper's taxonomy (§2, Table 1):
struct caps {
  /// protect() publishes pointer addresses into leased hazard slots (HP,
  /// HE). Incompatible with snapshot traversal (Bonsai): an unbounded
  /// snapshot cannot be pointer-protected, exactly as the paper's figures
  /// omit HP/HE from the Bonsai plots.
  bool pointer_publication = false;

  /// A stalled thread pins only a bounded number of retired nodes (HP, HE,
  /// IBR, Hyaline-S, Hyaline-1S).
  bool robust = false;

  /// Per-access reservations prove nothing about nodes reached through
  /// frozen (flagged/tagged/marked) edges, so traversals must help pending
  /// deletions and restart instead of crossing them (see
  /// ds/natarajan_tree.hpp). Implied by every robust scheme here; false
  /// for guard-lifetime schemes (Leaky, EBR, basic Hyaline, Hyaline-1),
  /// which pin everything retired while the guard is live. Structures with
  /// deferred unlinking (Harris's original list) additionally require this
  /// to be false (§2.4).
  bool needs_clean_edges = false;

  /// guard::trim() reclaims without leaving (Hyaline family, §3.3).
  bool supports_trim = false;
};

/// Upper bound on simultaneously live protection handles per guard.
/// Pointer-publication schemes lease from a finite per-thread slot array
/// and expose `D::max_hazards`; every other scheme protects through the
/// guard (or an era reservation) itself and reports "unlimited". Data
/// structures static_assert their peak handle count against this at
/// instantiation — the replacement for v1's scattered `hazards_needed`
/// constants and hand-numbered protect(idx, ...) calls.
template <class D>
inline constexpr unsigned max_hazards_v = [] {
  if constexpr (requires { D::max_hazards; }) {
    return unsigned{D::max_hazards};
  } else {
    return ~0u;
  }
}();

}  // namespace hyaline::smr
