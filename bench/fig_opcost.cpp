// Per-op cost breakdown: where the nanoseconds of one SMR'd operation go.
//
// The throughput figures report whole-workload mops — useful for trends,
// useless for attribution. This bench times the four primitives the per-op
// fast path targets, per scheme, in isolation:
//
//   guard    — enter+leave pair (amortized entry shows up here)
//   protect  — one protect() under a held guard (hazard publication)
//   alloc    — node allocate+free pair through the hooked_alloc seam
//              (the slab allocator shows up here)
//   retire   — guard + allocate + retire, inclusive of the amortized
//              scan/reclaim work retire triggers (subtract the guard and
//              alloc rows to isolate retire proper)
//
// Single-threaded by design: cross-thread interference is the throughput
// figures' job; this one answers "what does the uncontended path cost".
// Every SMR scheme in harness::smr_schemes is timed, and each must close
// its leak ledger after the drain (exit 3 otherwise).
//
//   fig_opcost [--iters n] [--fastpath on|off] [--shards n|auto]
//              [--schemes a,b,...] [--json path]
//
// CSV (scheme,op,ns_per_op) to stdout, followed by the paper's Table 1
// columns the code vouches for (robust, pointer publication, trim), read
// from each scheme's D::caps; --json adds a machine-readable file of the
// timings with the usual provenance block.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/provenance.hpp"
#include "harness/registry.hpp"
#include "harness/schemes.hpp"
#include "smr/core/slab_alloc.hpp"

namespace {

using namespace hyaline;
using harness::cli_options;
using harness::scheme_params;
using harness::scheme_traits;

/// Keep `v` alive past the optimizer without a memory barrier.
inline void escape(const void* v) { asm volatile("" : : "r"(v) : ); }

struct row {
  const char* scheme;
  const char* op;
  double ns;
};

using clock_type = std::chrono::steady_clock;

double ns_per(clock_type::time_point t0, clock_type::time_point t1,
              std::uint64_t iters) {
  const double ns =
      std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(
          t1 - t0)
          .count();
  return ns / static_cast<double>(iters);
}

/// Time D's primitives into `rows`; false if its ledger does not close.
template <class D>
bool measure(const cli_options& o, std::vector<row>& rows) {
  const char* name = scheme_traits<D>::name;

  scheme_params p;
  p.max_threads = 4;
  p.retire_shards = o.fastpath ? o.shards : 0;
  p.entry_burst = o.fastpath ? 64 : 0;
  auto dom = scheme_traits<D>::make(p);
  using guard_t = typename D::guard;
  struct pnode : D::node {
    std::uint64_t v = 0;
  };

  // guard enter+leave
  {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < o.iters; ++i) {
      guard_t g(*dom);
      escape(&g);
    }
    const auto t1 = clock_type::now();
    rows.push_back({name, "guard", ns_per(t0, t1, o.iters)});
  }

  // protect under a held guard
  {
    pnode* n = new pnode();
    dom->on_alloc(n);
    std::atomic<typename D::node*> src{n};
    {
      guard_t g(*dom);
      const auto t0 = clock_type::now();
      for (std::uint64_t i = 0; i < o.iters; ++i) {
        auto pp = g.protect(src);
        escape(pp.get());
      }
      const auto t1 = clock_type::now();
      rows.push_back({name, "protect", ns_per(t0, t1, o.iters)});
      g.retire(static_cast<pnode*>(src.load(std::memory_order_relaxed)));
    }
  }

  // node allocate+free pair (the hooked_alloc seam: debug hook -> slab ->
  // heap)
  {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < o.iters; ++i) {
      pnode* x = new pnode();
      escape(x);
      delete x;
    }
    const auto t1 = clock_type::now();
    rows.push_back({name, "alloc", ns_per(t0, t1, o.iters)});
  }

  // guard + alloc + retire, amortized reclaim included
  {
    const auto t0 = clock_type::now();
    for (std::uint64_t i = 0; i < o.iters; ++i) {
      guard_t g(*dom);
      pnode* x = new pnode();
      dom->on_alloc(x);
      g.retire(x);
    }
    const auto t1 = clock_type::now();
    rows.push_back({name, "retire", ns_per(t0, t1, o.iters)});
  }

  dom->drain();
  harness::workload_result r;
  r.retired = dom->counters().retired.load(std::memory_order_relaxed);
  r.freed = dom->counters().freed.load(std::memory_order_relaxed);
  return harness::ledgers_close(r, /*container=*/false, name);
}

const char* yes_no(bool b) { return b ? "yes" : "no"; }

}  // namespace

int main(int argc, char** argv) {
  cli_options defaults;
  defaults.iters = 200000;
  const cli_options o =
      harness::parse_cli(argc, argv, defaults, harness::kOpcostFlags);
  std::vector<std::string> names;
  harness::smr_schemes::for_each(
      [&]<class D>() { names.push_back(scheme_traits<D>::name); });
  if (!harness::validate_scheme_filter(o, names)) return 2;
  smr::core::slab::set_enabled(o.fastpath);

  std::vector<row> rows;
  bool leaked = false;
  harness::smr_schemes::for_each([&]<class D>() {
    if (o.scheme_enabled(scheme_traits<D>::name) && !measure<D>(o, rows)) {
      leaked = true;
    }
  });
  if (leaked) return 3;

  std::printf("# fig_opcost\nscheme,op,ns_per_op\n");
  for (const row& r : rows) {
    std::printf("%s,%s,%.2f\n", r.scheme, r.op, r.ns);
  }
  std::printf("\n# table1: columns read from each scheme's D::caps\n"
              "scheme,robust,pointer_publication,trim\n");
  harness::smr_schemes::for_each([&]<class D>() {
    if (!o.scheme_enabled(scheme_traits<D>::name)) return;
    std::printf("%s,%s,%s,%s\n", scheme_traits<D>::name,
                yes_no(D::caps.robust), yes_no(D::caps.pointer_publication),
                yes_no(D::caps.supports_trim));
  });

  if (!o.json.empty()) {
    std::string j = "{\n  \"bench\": \"opcost\",\n  \"version\": 1,\n";
    j += "  " + harness::provenance_json() + ",\n";
    j += "  \"config\": {\"iters\": " + std::to_string(o.iters) +
         ", \"fastpath\": \"" + (o.fastpath ? "on" : "off") +
         "\", \"shards\": " + std::to_string(o.fastpath ? o.shards : 0) +
         "},\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "    {\"scheme\": \"%s\", \"op\": \"%s\", \"ns\": "
                    "%.2f}%s\n",
                    rows[i].scheme, rows[i].op, rows[i].ns,
                    i + 1 == rows.size() ? "" : ",");
      j += buf;
    }
    j += "  ]\n}\n";
    std::FILE* f = std::fopen(o.json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open '%s'\n", o.json.c_str());
      return 2;
    }
    std::fputs(j.c_str(), f);
    const bool ok = std::ferror(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "write error on '%s'\n", o.json.c_str());
      return 2;
    }
  }
  return 0;
}
