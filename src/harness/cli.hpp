// Command-line parsing shared by the benchmark binaries.
//
// Every flag is written once, in cli.cpp's table: its name, value syntax,
// help line and value check. Each binary passes the set of flags it
// honours (the k*Flags sets below) to parse_cli, which exits 2 on any
// other flag, naming it; `--help` lists exactly that set. A value that
// fails its check — trailing characters included (`--iters 1e5`,
// `--duration 1e3`) — also exits 2.
//
// Duplicate entries in the --schemes, --threads, and --stalled lists are
// deduplicated with a warning: each would silently re-run (and re-plot)
// an identical series, which skews averaged CSV post-processing. The
// container figure driver applies the same rule to its zipped
// (producers, consumers) sweep points.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "lab/fault_plan.hpp"

namespace hyaline::harness {

/// The CSV column list — the one source both the header line and the row
/// printer derive from (print_csv_row statically asserts its value count
/// against this), so adding a column cannot leave the two out of sync.
inline constexpr const char* kCsvColumns[] = {
    "figure",        "structure",          "scheme",
    "threads",       "stalled",            "producers",
    "consumers",     "mops",               "unreclaimed_per_op",
    "unreclaimed_peak", "p50_ns",          "p99_ns",
    "max_ns",        "lag_p50_ns",         "lag_p99_ns",
    "lag_max_ns",
};

/// Every flag any binary takes (rows of cli.cpp's table). `--threads`
/// has two rows: a sweep list, and a single count for the binaries that
/// run one thread count.
enum class flag : unsigned {
  threads, thread_count, stalled, duration, repeats, prefill, range,
  schemes, producers, consumers, seed, faults, structure, trace, json,
  mutate, counterexample, svc_shards, tenants, rate, slo, churn, full,
  out, iters,
};

/// A set of flags, one bit each.
class flag_set {
 public:
  constexpr flag_set(std::initializer_list<flag> flags) {
    for (flag f : flags) add(f);
  }
  constexpr flag_set() = default;

  constexpr void add(flag f) { bits_ |= bit(f); }
  constexpr bool has(flag f) const { return (bits_ & bit(f)) != 0; }
  /// True if the two sets share a flag.
  constexpr bool any(flag_set other) const {
    return (bits_ & other.bits_) != 0;
  }

 private:
  static constexpr std::uint64_t bit(flag f) {
    return std::uint64_t{1} << static_cast<unsigned>(f);
  }
  std::uint64_t bits_ = 0;
};

// The flags each binary honours — its whole accepted set.

/// fig8_9_write, fig11_12_read, fig13_14_llsc_write, fig15_16_llsc_read,
/// fig10b_trim.
inline constexpr flag_set kFigureFlags = {
    flag::threads, flag::duration, flag::repeats, flag::prefill,
    flag::range,   flag::schemes,  flag::seed,    flag::trace,
    flag::json,    flag::full};
/// fig10a_robustness: one active-thread count, a stalled-thread sweep.
inline constexpr flag_set kRobustnessFlags = {
    flag::thread_count, flag::stalled, flag::duration, flag::repeats,
    flag::prefill,      flag::range,   flag::schemes,  flag::seed,
    flag::trace,        flag::json,    flag::full};
/// fig_queue: the producer/consumer split instead of the set-only knobs.
inline constexpr flag_set kContainerFlags = {
    flag::producers, flag::consumers, flag::duration, flag::repeats,
    flag::prefill,   flag::schemes,   flag::seed,     flag::trace,
    flag::json,      flag::full};
/// fig_timeline: one thread count, one repetition, scripted faults.
inline constexpr flag_set kTimelineFlags = {
    flag::thread_count, flag::duration, flag::prefill, flag::range,
    flag::schemes,      flag::seed,     flag::trace,   flag::json,
    flag::faults,       flag::structure};
/// fig_service: sized by tenants; every paced op is timed.
inline constexpr flag_set kServiceFlags = {
    flag::duration,   flag::prefill, flag::range, flag::schemes,
    flag::seed,       flag::trace,   flag::json,  flag::faults,
    flag::svc_shards, flag::tenants, flag::rate,  flag::slo,
    flag::churn};
/// check: the linearizability oracle.
inline constexpr flag_set kCheckFlags = {
    flag::thread_count, flag::duration, flag::prefill, flag::range,
    flag::schemes,      flag::seed,     flag::faults,  flag::structure,
    flag::mutate,       flag::counterexample};
/// sweep: the pinned trajectory line-up.
inline constexpr flag_set kSweepFlags = {
    flag::out,  flag::thread_count, flag::duration, flag::repeats,
    flag::seed, flag::schemes};
/// fig_opcost: single-threaded primitive timings.
inline constexpr flag_set kOpcostFlags = {flag::iters, flag::schemes,
                                          flag::json};

struct cli_options {
  std::vector<unsigned> threads;
  std::vector<unsigned> stalled;
  unsigned duration_ms = 300;
  unsigned repeats = 1;
  std::uint64_t key_range = 100000;
  std::size_t prefill = 50000;
  std::vector<std::string> schemes;  // empty = all
  /// Producer/consumer sweep lists (container figures). Empty = the
  /// figure's defaults; the figure driver zips them pairwise.
  std::vector<unsigned> producers;
  std::vector<unsigned> consumers;
  /// Base PRNG seed for every workload generator (default matches
  /// workload_config's).
  std::uint64_t seed = 0x5eed;
  /// Robustness-lab knobs. `faults` is the raw spec text — parsed and
  /// validated by load_fault_plan, which knows the thread count.
  std::string faults;
  std::string structure;
  /// Path for the Chrome trace-event JSON export of the SMR-internals
  /// event rings (empty = tracing stays off).
  std::string trace;
  /// Path for the machine-readable JSON trajectory file (empty = none).
  std::string json;
  /// Correctness-oracle knobs: `mutate` selects an injected-bug
  /// self-test (drop-validate | skip-protect), `counterexample` is where
  /// a violation's counterexample history is mirrored.
  std::string mutate;
  std::string counterexample;
  /// Service-scenario knobs. Sentinels mark "unset" so the driver can
  /// apply its own defaults: 0 for the counts/periods, negative for the
  /// rate, empty for the spec.
  unsigned svc_shards = 0;    ///< cache shards (each owns a domain)
  unsigned tenants = 0;       ///< swarm size (worker threads)
  double rate_ops_s = -1;     ///< total offered load; 0 = closed loop
  std::string slo;            ///< SLO spec (svc/slo.hpp)
  unsigned churn_ms = 0;      ///< connection-churn period; 0 = none
  /// Trajectory knobs (sweep, fig_opcost): the output file and the
  /// iterations per timed primitive.
  std::string out;
  std::uint64_t iters = 0;
  /// The flags given on the command line — for the checks that depend on
  /// whether a flag was given rather than on its value (defaults are
  /// binary-supplied).
  flag_set given;

  /// True if `name` should run under the --schemes filter.
  bool scheme_enabled(const std::string& name) const;
};

/// Parse argv over `defaults`, accepting only the flags in `accepted`.
/// Exits 2 with a message and the usage text on a flag outside the set
/// or a malformed value. Also ignores SIGPIPE: a reader that closes
/// stdout early (`| head`) then costs only the lines it did not read,
/// while the binary runs on to write its --json, --trace, --out or
/// --counterexample file and exits with the status it would have had.
cli_options parse_cli(int argc, char** argv, cli_options defaults,
                      flag_set accepted);

/// The usage text `--help` prints: one line per flag in `accepted`.
std::string usage_text(const char* prog, flag_set accepted);

/// A whole-string finite number: `1e5` is one, `0.25x` and `abc` are not.
bool to_double(const char* s, double* out);

/// Write the file `flag` names (--json, --out, --counterexample) through
/// `body`, then close it. False, with a message naming the flag on
/// stderr, if the file cannot be opened or any write failed, the flush
/// at close included (`--json /dev/full`).
bool write_output(const char* flag, const std::string& path,
                  const std::function<void(std::FILE*)>& body);

/// True if every --schemes name is in `valid`; otherwise names the first
/// unknown one and lists `valid` on stderr. A typo should fail loudly,
/// not produce empty output.
bool validate_scheme_filter(const cli_options& o,
                            const std::vector<std::string>& valid);

/// Resolve --faults into *plan (left empty without the flag): parsed,
/// tids validated against `threads` workers, every kind one `loop` runs,
/// and the last fault clearing before --duration ends so recovery is
/// measurable. False, with the reason on stderr, on any violation.
bool load_fault_plan(const cli_options& o, unsigned threads,
                     lab::fault_loop loop, lab::fault_plan* plan);

/// Print the standard CSV header used by all figure benches: a comment
/// line naming the figure, one echoing the seed, one echoing the
/// latency-sampling period (omitted when `lat_sample` is 0), then the
/// kCsvColumns line.
void print_csv_header(const char* figure, std::uint64_t seed,
                      std::uint64_t lat_sample = 0);

/// Emit one CSV data row (column meanings per kCsvColumns; producers and
/// consumers are 0 on set-structure rows, latency columns are the sampled
/// per-op percentiles in ns, lag columns the retire->free percentiles —
/// zero unless the run had lag tracking on).
void print_csv_row(const char* figure, const char* structure,
                   const char* scheme, unsigned threads, unsigned stalled,
                   unsigned producers, unsigned consumers, double mops,
                   double unreclaimed, double unreclaimed_peak,
                   double p50_ns, double p99_ns, double max_ns,
                   double lag_p50_ns, double lag_p99_ns, double lag_max_ns);

}  // namespace hyaline::harness
