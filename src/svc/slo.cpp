#include "svc/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "lab/fault_plan.hpp"

namespace hyaline::svc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

bool parse_item(std::string_view tok, slo_item* item, std::string* err) {
  const std::string s(tok);  // NUL-terminated view for strto*
  const char* p = s.c_str();

  const auto starts = [&](const char* kw) {
    const std::size_t n = std::char_traits<char>::length(kw);
    if (s.compare(0, n, kw) != 0) return false;
    p += n;
    return true;
  };

  if (starts("p99=")) {
    item->kind = slo_kind::p99;
    double ms = 0;
    if (!lab::parse_time_ms(p, &ms) || ms <= 0 || *p != '\0') {
      return fail(err, "bad latency bound in '" + s +
                           "' (want e.g. p99=500us)");
    }
    item->bound = ms * 1e6;  // ns
    return true;
  }
  if (starts("unreclaimed<")) {
    item->kind = slo_kind::unreclaimed;
    char* end = nullptr;
    const double f = std::strtod(p, &end);
    if (end == p || !(f > 0) || std::isinf(f)) {
      return fail(err, "bad factor in '" + s + "' (want e.g. unreclaimed<2x)");
    }
    p = end;
    if (*p != 'x' || *(p + 1) != '\0') {
      return fail(err, "missing 'x' after factor in '" + s + "'");
    }
    item->bound = f;
    return true;
  }
  if (starts("recovery<")) {
    item->kind = slo_kind::recovery;
    double ms = 0;
    if (!lab::parse_time_ms(p, &ms) || ms <= 0 || *p != '\0') {
      return fail(err, "bad recovery bound in '" + s +
                           "' (want e.g. recovery<1s)");
    }
    item->bound = ms;
    return true;
  }
  return fail(err, "unknown SLO item '" + s +
                       "' (want p99= | unreclaimed< | recovery<)");
}

std::string fmt_time_ns(double ns) {
  char buf[32];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.3gs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.4gms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.4gus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  }
  return buf;
}

/// Memory-limit geometry shared by the unreclaimed and recovery items.
/// With a scripted disturbance the baseline is the pre-disturbance peak
/// and the settle point mirrors check_recovery (second half of the
/// post-disturbance tail); with none, the run's first half is the
/// baseline and its second half the tail.
struct memory_windows {
  double baseline_until_ms = 0;
  double settle_from_ms = 0;
  bool disturbed = false;
};

memory_windows make_windows(const slo_inputs& in) {
  memory_windows w;
  w.disturbed = in.disturb_start_ms < in.duration_ms &&
                !std::isinf(in.disturb_start_ms);
  if (w.disturbed) {
    w.baseline_until_ms = in.disturb_start_ms;
    const double end = std::min(in.disturb_end_ms, in.duration_ms);
    w.settle_from_ms = end + (in.duration_ms - end) / 2;
  } else {
    w.baseline_until_ms = in.duration_ms / 2;
    w.settle_from_ms = in.duration_ms / 2;
  }
  return w;
}

double peak_before(const std::vector<lab::sample_point>& pts, double t_ms,
                   bool* any) {
  double peak = 0;
  *any = false;
  for (const lab::sample_point& p : pts) {
    if (p.t_ms >= t_ms) break;
    peak = std::max(peak, static_cast<double>(p.unreclaimed));
    *any = true;
  }
  return peak;
}

double peak_from(const std::vector<lab::sample_point>& pts, double t_ms,
                 bool* any) {
  double peak = 0;
  *any = false;
  for (const lab::sample_point& p : pts) {
    if (p.t_ms < t_ms) continue;
    peak = std::max(peak, static_cast<double>(p.unreclaimed));
    *any = true;
  }
  return peak;
}

}  // namespace

const char* kind_name(slo_kind k) {
  switch (k) {
    case slo_kind::p99: return "p99";
    case slo_kind::unreclaimed: return "unreclaimed";
    case slo_kind::recovery: return "recovery";
  }
  return "?";
}

std::optional<slo_spec> parse_slo(std::string_view spec, std::string* err) {
  slo_spec out;
  out.text = std::string(spec);
  bool seen[3] = {};
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view tok = spec.substr(pos, comma - pos);
    if (tok.empty()) {
      if (err != nullptr) *err = "empty item in SLO spec";
      return std::nullopt;
    }
    slo_item item;
    if (!parse_item(tok, &item, err)) return std::nullopt;
    const int k = static_cast<int>(item.kind);
    if (seen[k]) {
      if (err != nullptr) {
        *err = std::string("duplicate SLO item '") + kind_name(item.kind) +
               "'";
      }
      return std::nullopt;
    }
    seen[k] = true;
    out.items.push_back(item);
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  if (out.items.empty()) {
    if (err != nullptr) *err = "empty SLO spec";
    return std::nullopt;
  }
  return out;
}

std::vector<slo_verdict> evaluate_slo(const slo_spec& spec,
                                      const slo_inputs& in) {
  // The recovery item judges against the unreclaimed item's limit when
  // the spec carries one; otherwise check_recovery's 2x default.
  double mem_factor = 2.0;
  for (const slo_item& item : spec.items) {
    if (item.kind == slo_kind::unreclaimed) mem_factor = item.bound;
  }

  const memory_windows w = make_windows(in);
  double baseline = 0;
  bool have_baseline = false;
  double limit = lab::kRecoveryFloor;
  if (in.timeline != nullptr) {
    baseline = peak_before(*in.timeline, w.baseline_until_ms, &have_baseline);
    limit = std::max(mem_factor * baseline, lab::kRecoveryFloor);
  }

  std::vector<slo_verdict> out;
  out.reserve(spec.items.size());
  for (const slo_item& item : spec.items) {
    slo_verdict v;
    v.item = item;
    switch (item.kind) {
      case slo_kind::p99: {
        v.gated = true;
        v.limit = item.bound;
        if (in.latency == nullptr || in.latency->total() == 0) {
          v.note = "no victim latency samples";
          break;
        }
        v.checked = true;
        v.measured = in.latency->percentile(0.99);
        v.pass = v.measured <= v.limit;
        break;
      }
      case slo_kind::unreclaimed: {
        v.gated = in.robust;
        if (!v.gated) v.note = "non-robust scheme, reported only";
        v.limit = limit;
        if (in.timeline == nullptr || !have_baseline) {
          v.note = "no baseline samples";
          break;
        }
        bool any_tail = false;
        double peak = peak_from(*in.timeline, w.settle_from_ms, &any_tail);
        if (w.disturbed) {
          // Pre-disturbance growth also violates a steady-state bound.
          bool any_pre = false;
          peak = std::max(
              peak, peak_before(*in.timeline, w.baseline_until_ms, &any_pre));
        }
        if (!any_tail) {
          v.note = "no settled-tail samples";
          break;
        }
        v.checked = true;
        v.measured = peak;
        v.pass = v.measured <= v.limit;
        break;
      }
      case slo_kind::recovery: {
        v.gated = in.robust;
        if (!v.gated) v.note = "non-robust scheme, reported only";
        v.limit = limit;
        if (!w.disturbed) {
          v.note = "no scripted disturbance";
          break;
        }
        if (in.timeline == nullptr || !have_baseline) {
          v.note = "no baseline samples";
          break;
        }
        const double end = std::min(in.disturb_end_ms, in.duration_ms);
        bool any_post = false;
        double recovered_at = kInf;
        for (const lab::sample_point& p : *in.timeline) {
          if (p.t_ms < end) continue;
          any_post = true;
          if (static_cast<double>(p.unreclaimed) <= limit) {
            recovered_at = p.t_ms;
            break;
          }
        }
        if (!any_post) {
          v.note = "no post-disturbance samples";
          break;
        }
        v.checked = true;
        v.measured = recovered_at - end;  // ms; +inf if never back under
        v.pass = v.measured <= item.bound;
        break;
      }
    }
    out.push_back(v);
  }
  return out;
}

bool slo_violated(const std::vector<slo_verdict>& verdicts) {
  for (const slo_verdict& v : verdicts) {
    if (v.gated && v.checked && !v.pass) return true;
  }
  return false;
}

std::string format_verdict(const slo_verdict& v) {
  std::string out = kind_name(v.item.kind);
  out += ": ";
  char buf[96];
  switch (v.item.kind) {
    case slo_kind::p99:
      out += fmt_time_ns(v.measured) + " <= " + fmt_time_ns(v.limit);
      break;
    case slo_kind::unreclaimed:
      std::snprintf(buf, sizeof buf, "peak %.0f <= limit %.0f (%gx)",
                    v.measured, v.limit, v.item.bound);
      out += buf;
      break;
    case slo_kind::recovery:
      if (std::isinf(v.measured)) {
        std::snprintf(buf, sizeof buf,
                      "never back under %.0f (bound %gms)", v.limit,
                      v.item.bound);
      } else {
        std::snprintf(buf, sizeof buf, "%.1fms <= %gms (limit %.0f)",
                      v.measured, v.item.bound, v.limit);
      }
      out += buf;
      break;
  }
  if (!v.checked) {
    out += std::string(" [unchecked: ") + v.note + "]";
  } else if (v.pass) {
    out += " [pass]";
  } else if (v.gated) {
    out += " [FAIL]";
  } else {
    out += std::string(" [fail, ungated: ") + v.note + "]";
  }
  return out;
}

}  // namespace hyaline::svc
