// Service scenario, part 3: the SLO gate.
//
// Declarative service-level objectives evaluated over a run's victim
// latency histogram and telemetry time series:
//
//   spec  := item (',' item)*
//   item  := 'p99' '=' time                  latency bound
//          | 'unreclaimed' '<' factor 'x'    memory bound
//          | 'recovery' '<' time             recovery bound
//
// Times use the fault-plan syntax (ms default, ns/us/ms/s suffixes),
// e.g.
// `p99=500us,unreclaimed<2x,recovery<1s`.
//
// The latency item gates EVERY scheme over the victim (unscripted)
// tenants' CO-safe histogram. The memory items take the fig_timeline stance:
// robustness is the paper's promise, so they *gate* robust schemes only
// (non-robust schemes are still measured and reported, ungated):
//
//   unreclaimed < Fx — steady-state bound: peak unreclaimed outside the
//     disturbance window (before it starts, and after the post-
//     disturbance settle point) stays within F times the pre-disturbance
//     peak, floored at lab::kRecoveryFloor (check_recovery's floor).
//     Growth *during* a scripted fault is expected even for robust
//     schemes (bounded != flat); the recovery item covers the return.
//   recovery < T — after the last scripted disturbance clears, the
//     unreclaimed count returns under the same limit within T.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lab/telemetry.hpp"

namespace hyaline::svc {

enum class slo_kind { p99, unreclaimed, recovery };

/// The item's name in the grammar ("p99", "unreclaimed", "recovery").
const char* kind_name(slo_kind k);

struct slo_item {
  slo_kind kind = slo_kind::p99;
  /// p99: bound in ns. unreclaimed: the factor F. recovery: bound in ms.
  double bound = 0;
};

struct slo_spec {
  std::vector<slo_item> items;
  /// Original spec text, echoed into reports and the --json config.
  std::string text;

  bool empty() const { return items.empty(); }
};

/// Parse a --slo spec; nullopt with a message in *err on syntax errors,
/// unknown items, or duplicate kinds.
std::optional<slo_spec> parse_slo(std::string_view spec, std::string* err);

/// Everything one scheme's evaluation reads. Disturbance bounds come
/// from the fault plan's windows (svc::disturbance_of; +infinity when the
/// swarm ran none — the memory items then bound growth over the run's
/// second half against its first, and recovery is unchecked).
struct slo_inputs {
  const lab::latency_histogram* latency = nullptr;  ///< victim tenants
  const std::vector<lab::sample_point>* timeline = nullptr;
  double disturb_start_ms = 0;
  double disturb_end_ms = 0;
  double duration_ms = 0;
  bool robust = false;  ///< scheme caps: gates the memory items
};

struct slo_verdict {
  slo_item item;
  bool gated = false;    ///< counts toward the exit status
  bool checked = false;  ///< enough data to judge (unchecked != failed)
  bool pass = false;
  double measured = 0;  ///< same unit as item.bound (limit for memory)
  double limit = 0;
  const char* note = "";  ///< why unchecked / ungated
};

std::vector<slo_verdict> evaluate_slo(const slo_spec& spec,
                                      const slo_inputs& in);

/// True if any gated, checked verdict failed — the exit-6 condition.
bool slo_violated(const std::vector<slo_verdict>& verdicts);

/// One human-readable report line, e.g.
/// "p99: 412us <= 500us [pass]" or "unreclaimed: ... [fail, ungated]".
std::string format_verdict(const slo_verdict& v);

}  // namespace hyaline::svc
