// Runtime scheme registry: the type-erased scheme×structure run matrix.
//
// Every (scheme, structure) pair is instantiated exactly once — in
// registry.cpp — behind a plain function pointer, and benchmarks look
// schemes up *by name at runtime*. `--schemes Hyaline-S` therefore needs
// no recompilation, and a new scheme lands in the whole benchmark suite
// (figures, service scenario, oracle) by giving it a scheme_traits and
// adding its type to `smr_schemes`; a new structure by adding one cell
// in make_entry.
//
// The entries are built from harness/schemes.hpp's `smr_schemes` list —
// each entry carries the scheme's smr::caps, its line-up role and LL/SC
// twin, its structure cells and its service-scenario runner — plus the
// Mutex honesty baseline. Structures come in two kinds, which the cells
// carry so drivers can validate options per cell (key_range/op-mix are
// set-only; the producer/consumer split is container-only):
//   - sets: list (Harris–Michael list), harris (Harris list with deferred
//     unlink), hashmap, nmtree, bonsai — driven by run_workload;
//   - containers: msqueue (Michael–Scott MPMC queue), stack (Treiber
//     stack) — driven by run_container_workload. Containers have no
//     marked-edge traversal, so every scheme gets both container cells,
//     including the robust ones harris excludes.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/schemes.hpp"
#include "harness/workload.hpp"
#include "smr/caps.hpp"

namespace hyaline::svc {
struct service_config;
struct service_result;
}  // namespace hyaline::svc

namespace hyaline::harness {

/// One type-erased benchmark run: construct the scheme from `params`, build
/// the structure over it, drive the kind's workload loop, tear down, and
/// report the result (including the final retired/freed counters for leak
/// checks).
using runner_fn = workload_result (*)(const scheme_params& params,
                                      const workload_config& cfg);

/// The service scenario's tenant swarm over one scheme (svc/service.hpp).
using service_runner_fn = svc::service_result (*)(const scheme_params&,
                                                  const svc::service_config&);

/// What a registered structure is, and therefore which workload driver and
/// which workload_config options apply to its cell.
enum class structure_kind {
  set,        ///< keyed insert/remove/get over run_workload
  container,  ///< push/pop over run_container_workload
};

/// How a container orders its values. The linearizability oracle
/// (src/check) selects its token-matching mode from this tag, so a new
/// container declares its checkable semantics where it is registered
/// instead of being name-matched by the checker. `none` for sets.
enum class container_order {
  none,
  fifo,  ///< queue: strict arrival order (ms_queue)
  lifo,  ///< stack: strict reverse arrival order (treiber_stack)
};

/// The integrity gate after a runner returns: the leak ledger (retired
/// == freed after the quiescent drain) and, for a container, the
/// conservation ledger (enqueued == dequeued + drained). Each broken
/// ledger is reported on stderr, prefixed by `where`; false if any broke.
bool ledgers_close(const workload_result& r, bool container,
                   const std::string& where);

class scheme_registry {
 public:
  struct cell {
    std::string structure;
    structure_kind kind = structure_kind::set;
    runner_fn run;
    container_order order = container_order::none;
  };

  struct entry {
    std::string name;
    smr::caps caps;  ///< D::caps
    /// One of the nine schemes the paper's figures plot.
    bool core_lineup = false;
    /// Externally synchronized honesty baseline (the coarse-mutex cells):
    /// not an SMR scheme at all. SMR-only sweeps and comparisons skip
    /// these entries; drivers may still run them by name to report the
    /// floor.
    bool external_baseline = false;
    /// Name of this scheme's emulated-LL/SC twin, if one is registered
    /// (the Figures 13-16 head substitution); empty otherwise.
    std::string llsc_variant;
    std::vector<cell> cells;
    /// The service scenario over this scheme; nullptr for the Mutex
    /// baseline, which has no guard/retire protocol to shard.
    service_runner_fn service = nullptr;

    /// Runner for one structure, or nullptr if the pair is not registered
    /// (e.g. HP/HE × bonsai).
    runner_fn runner_for(std::string_view structure) const;

    /// The full cell (kind included), or nullptr if not registered.
    const cell* cell_for(std::string_view structure) const;
  };

  /// The process-wide registry, built on first use. Entries are in the
  /// paper's plotting order (`schemes()` drives the figure line-ups).
  static const scheme_registry& instance();

  const entry* find(std::string_view scheme) const;
  runner_fn runner(std::string_view scheme, std::string_view structure) const;

  const std::vector<entry>& schemes() const { return schemes_; }

  /// Every registered structure name with its kind, first-appearance
  /// order, deduplicated across schemes — the timeline driver resolves
  /// and validates `--structure` against this.
  struct structure_info {
    std::string name;
    structure_kind kind;
  };
  std::vector<structure_info> structures() const;

  /// The kind of a registered structure, or nullopt if no scheme
  /// registers it.
  std::optional<structure_kind> kind_of(std::string_view structure) const;

 private:
  scheme_registry();

  std::vector<entry> schemes_;
};

}  // namespace hyaline::harness
