// The one translation unit that instantiates the scheme×structure template
// matrix. Everything downstream (figures, tests, future tools) reaches the
// pairs through type-erased runner_fn pointers looked up by name.
#include "harness/registry.hpp"

#include <algorithm>
#include <cstdio>

#include "ds/bonsai_tree.hpp"
#include "lab/telemetry.hpp"
#include "ds/harris_list.hpp"
#include "ds/hm_list.hpp"
#include "ds/locked_queue.hpp"
#include "ds/locked_set.hpp"
#include "ds/michael_hashmap.hpp"
#include "ds/ms_queue.hpp"
#include "ds/natarajan_tree.hpp"
#include "ds/treiber_stack.hpp"
#include "smr/domain.hpp"
#include "smr/immediate.hpp"
#include "svc/service.hpp"

namespace hyaline::harness {

// The one head-policy variant no entry registers still satisfies the v2
// facade (run_cell asserts it for every registered scheme).
static_assert(smr::Domain<domain_s_dw>);

namespace {

/// Carry the domain's full counter state (ledgers, mechanism events, lag
/// histogram) out of the cell after the quiescent drain, and rehydrate the
/// lag buckets into percentile columns via the shared histogram math. The
/// lag fields stay zero unless the caller enabled obs::set_lag_tracking.
void capture_counters(workload_result& r, const smr::stats& st) {
  r.obs = st.snapshot();
  r.retired = r.obs.retired;
  r.freed = r.obs.freed;
  const auto lagh =
      lab::latency_histogram::from_counts(r.obs.lag_bucket, r.obs.lag_max_ns);
  r.lag_p50_ns = lagh.percentile(0.50);
  r.lag_p99_ns = lagh.percentile(0.99);
  r.lag_max_ns = r.obs.lag_max_ns;
}

/// One benchmark run over a concrete (scheme, structure) pair, through the
/// set or the container driver as the structure's interface says. Teardown
/// order matters for the trailing leak counters: the structure frees its
/// live nodes directly, then the quiescent drain flushes every
/// retired-but-unreclaimed node through the scheme, after which
/// retired == freed must hold; a container's conservation ledger rides
/// out in the result too.
template <class D, template <class> class S>
workload_result run_cell(const scheme_params& params,
                         const workload_config& cfg) {
  // Every registered scheme satisfies the v2 facade — enforced here, at
  // the single point all of them are instantiated, rather than
  // documented.
  static_assert(smr::Domain<D>);
  constexpr bool container = requires(S<D> s, typename D::guard g,
                                      std::uint64_t v) { s.try_pop(g, v); };
  // Transparent thread identity (API v2) leases tids first-come: the
  // calling thread prefills (and drains), so the pool must cover it
  // alongside the workers and stalled threads.
  const unsigned workers =
      (container ? container_split(cfg).total() : cfg.threads) +
      cfg.stalled_threads;
  scheme_params p = params;
  p.max_threads = std::max(p.max_threads, workers + 1);
  auto dom = scheme_traits<D>::make(p);
  workload_result r;
  {
    S<D> s(*dom);
    if constexpr (container) {
      r = run_container_workload(*dom, s, cfg);
    } else {
      r = run_workload(*dom, s, cfg);
    }
  }
  dom->drain();
  capture_counters(r, dom->counters());
  return r;
}

/// Build one registry entry for scheme D. The structure cells follow the
/// compile-time capability tags (smr/caps.hpp): Bonsai lookups walk an
/// immutable snapshot that cannot be pointer-protected (paper: HP/HE
/// excluded), and Harris's original list is stricter still — traversal
/// crosses marked (logically deleted) segments, which only guard-lifetime
/// epoch-style schemes pin safely (§2.4's "basic Hyaline works with [20];
/// its robust version requires timely retirement"). The same tags gate the
/// structures' own static_asserts, so an entry the registry would refuse
/// cannot even be compiled by hand.
template <class D>
scheme_registry::entry make_entry() {
  using traits = scheme_traits<D>;
  constexpr structure_kind set = structure_kind::set;
  constexpr structure_kind container = structure_kind::container;
  scheme_registry::entry e;
  e.name = traits::name;
  e.caps = D::caps;
  e.core_lineup = traits::core_lineup;
  e.service = &svc::run_service<D>;
  if constexpr (requires { typename traits::llsc_twin; }) {
    e.llsc_variant = scheme_traits<typename traits::llsc_twin>::name;
  }
  e.cells.push_back({"list", set, &run_cell<D, ds::hm_list>});
  e.cells.push_back({"hashmap", set, &run_cell<D, ds::michael_hashmap>});
  e.cells.push_back({"nmtree", set, &run_cell<D, ds::natarajan_tree>});
  if constexpr (!D::caps.pointer_publication) {
    e.cells.push_back({"bonsai", set, &run_cell<D, ds::bonsai_tree>});
    if constexpr (!D::caps.robust) {
      e.cells.push_back({"harris", set, &run_cell<D, ds::harris_list>});
    }
  }
  // The container family: no snapshot traversal, no marked-edge crossing —
  // every scheme qualifies (the dummy-handoff and head-only protection
  // patterns are exactly what HP/HE's bounded hazard budget covers, peak 2
  // and 1 respectively). The order tag declares each container's
  // checkable semantics to the linearizability oracle.
  e.cells.push_back({"msqueue", container,
                     &run_cell<D, ds::ms_queue>,
                     container_order::fifo});
  e.cells.push_back({"stack", container,
                     &run_cell<D, ds::treiber_stack>,
                     container_order::lifo});
  return e;
}

}  // namespace

bool ledgers_close(const workload_result& r, bool container,
                   const std::string& where) {
  bool ok = true;
  if (container && r.enqueued != r.dequeued + r.drained) {
    std::fprintf(stderr,
                 "%s: conservation violated — pushed %llu != popped %llu + "
                 "drained %llu\n",
                 where.c_str(), static_cast<unsigned long long>(r.enqueued),
                 static_cast<unsigned long long>(r.dequeued),
                 static_cast<unsigned long long>(r.drained));
    ok = false;
  }
  if (r.retired != r.freed) {
    std::fprintf(stderr, "%s: leak — retired %llu, freed %llu after drain\n",
                 where.c_str(), static_cast<unsigned long long>(r.retired),
                 static_cast<unsigned long long>(r.freed));
    ok = false;
  }
  return ok;
}

runner_fn scheme_registry::entry::runner_for(
    std::string_view structure) const {
  const cell* c = cell_for(structure);
  return c != nullptr ? c->run : nullptr;
}

const scheme_registry::cell* scheme_registry::entry::cell_for(
    std::string_view structure) const {
  for (const cell& c : cells) {
    if (c.structure == structure) return &c;
  }
  return nullptr;
}

scheme_registry::scheme_registry() {
  smr_schemes::for_each(
      [&]<class D>() { schemes_.push_back(make_entry<D>()); });

  // Honesty baseline: coarse-mutex structures over the immediate-free
  // pseudo-domain. Not part of the core lineup and tagged
  // external_baseline so SMR-only sweeps skip it; run it by name
  // (`--schemes Mutex`) to report the floor speedups are measured against.
  {
    scheme_registry::entry mutex_entry;
    mutex_entry.name = scheme_traits<smr::immediate_domain>::name;
    mutex_entry.caps = smr::immediate_domain::caps;
    mutex_entry.external_baseline = true;
    mutex_entry.cells.push_back(
        {"lockedset", structure_kind::set,
         &run_cell<smr::immediate_domain, ds::locked_set>});
    mutex_entry.cells.push_back(
        {"lockedqueue", structure_kind::container,
         &run_cell<smr::immediate_domain, ds::locked_queue>,
         container_order::fifo});
    schemes_.push_back(std::move(mutex_entry));
  }
}

const scheme_registry& scheme_registry::instance() {
  static scheme_registry r;
  return r;
}

const scheme_registry::entry* scheme_registry::find(
    std::string_view scheme) const {
  for (const entry& e : schemes_) {
    if (e.name == scheme) return &e;
  }
  return nullptr;
}

runner_fn scheme_registry::runner(std::string_view scheme,
                                  std::string_view structure) const {
  const entry* e = find(scheme);
  return e != nullptr ? e->runner_for(structure) : nullptr;
}

std::vector<scheme_registry::structure_info> scheme_registry::structures()
    const {
  std::vector<structure_info> out;
  for (const entry& e : schemes_) {
    for (const cell& c : e.cells) {
      const bool seen =
          std::any_of(out.begin(), out.end(), [&](const structure_info& s) {
            return s.name == c.structure;
          });
      if (!seen) out.push_back({c.structure, c.kind});
    }
  }
  return out;
}

std::optional<structure_kind> scheme_registry::kind_of(
    std::string_view structure) const {
  for (const entry& e : schemes_) {
    if (const cell* c = e.cell_for(structure)) return c->kind;
  }
  return std::nullopt;
}

}  // namespace hyaline::harness
