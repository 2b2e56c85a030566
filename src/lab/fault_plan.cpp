#include "lab/fault_plan.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "obs/trace.hpp"

namespace hyaline::lab {

bool parse_time_ms(const char*& p, double* out) {
  if (*p == '-') return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(p, &end);
  if (end == p || errno == ERANGE || !(v >= 0) || std::isinf(v)) {
    return false;
  }
  p = end;
  double scale = 1.0;  // ms
  if (p[0] == 'u' && p[1] == 's') {
    scale = 1e-3;
    p += 2;
  } else if (p[0] == 'n' && p[1] == 's') {
    scale = 1e-6;
    p += 2;
  } else if (p[0] == 'm' && p[1] == 's') {
    p += 2;
  } else if (p[0] == 's') {
    scale = 1e3;
    p += 1;
  }
  *out = v * scale;
  return true;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool parse_uint(const char*& p, std::uint64_t* out) {
  if (*p < '0' || *p > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(p, &end, 10);
  if (end == p || errno == ERANGE) return false;
  p = end;
  *out = v;
  return true;
}

bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

/// Parse one comma-delimited event into *ev.
bool parse_event(std::string_view tok, fault_event* ev, std::string* err) {
  const std::string item(tok);  // NUL-terminated view for strto*
  const char* p = item.c_str();

  const auto starts = [&](const char* kw) {
    const std::size_t n = std::char_traits<char>::length(kw);
    return item.compare(0, n, kw) == 0 ? (p = item.c_str() + n, true)
                                       : false;
  };
  if (starts("stall:")) {
    ev->kind = fault_kind::stall;
  } else if (starts("slow:")) {
    ev->kind = fault_kind::slow;
  } else if (starts("hot:")) {
    ev->kind = fault_kind::hot;
  } else if (starts("scan:")) {
    ev->kind = fault_kind::scan;
  } else if (starts("burst:")) {
    ev->kind = fault_kind::burst;
  } else if (starts("exit:")) {
    ev->kind = fault_kind::exit_thread;
  } else if (starts("churn:")) {
    ev->kind = fault_kind::churn;
  } else {
    return fail(err, "unknown fault kind in '" + item +
                         "' (want stall/slow/hot/scan/burst/exit/churn)");
  }

  std::uint64_t arg = 0;
  if (!parse_uint(p, &arg)) {
    return fail(err, "missing tid/count in '" + item + "'");
  }
  if (ev->kind == fault_kind::burst) {
    if (arg == 0) return fail(err, "burst count must be > 0 in '" + item + "'");
    ev->count = arg;
  } else {
    if (arg > 1u << 20) {
      return fail(err, "implausible tid in '" + item + "'");
    }
    ev->tid = static_cast<unsigned>(arg);
  }

  if (ev->kind == fault_kind::slow) {
    if (*p != '/') {
      return fail(err, "slow wants tid/usec in '" + item + "'");
    }
    ++p;
    std::uint64_t us = 0;
    if (!parse_uint(p, &us) || us == 0 || us > 10'000'000) {
      return fail(err, "slow delay must be 1..10000000 us in '" + item + "'");
    }
    ev->delay_us = static_cast<std::uint32_t>(us);
  }

  if (*p != '@') return fail(err, "missing '@start' in '" + item + "'");
  ++p;
  if (!parse_time_ms(p, &ev->start_ms)) {
    return fail(err, "bad start time in '" + item + "'");
  }

  if (windowed(ev->kind)) {
    if (*p != '+') {
      return fail(err, "missing '+duration' in '" + item + "'");
    }
    ++p;
    if (item.compare(p - item.c_str(), 3, "inf") == 0) {
      if (ev->kind != fault_kind::stall) {
        return fail(err, "only stall windows may be infinite ('" + item + "')");
      }
      ev->dur_ms = kInf;
      p += 3;
    } else if (!parse_time_ms(p, &ev->dur_ms) || ev->dur_ms <= 0) {
      return fail(err, "bad duration in '" + item + "'");
    }
  }

  if (*p != '\0') {
    return fail(err, "trailing garbage in '" + item + "'");
  }
  return true;
}

}  // namespace

bool fault_plan::validate_tids(unsigned worker_threads,
                               std::string* err) const {
  for (const fault_event& e : events) {
    if (e.kind == fault_kind::burst) continue;
    if (e.tid >= worker_threads) {
      if (err != nullptr) {
        *err = "fault targets tid " + std::to_string(e.tid) +
               " but the run has only " + std::to_string(worker_threads) +
               " worker threads (tids 0.." +
               std::to_string(worker_threads - 1) + ")";
      }
      return false;
    }
  }
  return true;
}

bool fault_plan::runs_on(fault_loop loop, std::string* err) const {
  for (const fault_event& e : events) {
    const bool inline_kind =
        e.kind == fault_kind::hot || e.kind == fault_kind::scan;
    const char* why = nullptr;
    if (loop == fault_loop::workload && inline_kind) {
      why = "hot and scan windows run only in the service swarm";
    } else if (loop == fault_loop::service && e.kind == fault_kind::burst) {
      why = "the service swarm has no retire pair to replay a burst with";
    } else if (loop == fault_loop::service && std::isinf(e.dur_ms)) {
      why = "the service swarm needs every window to close";
    }
    if (why != nullptr) {
      if (err != nullptr) *err = why;
      return false;
    }
  }
  return true;
}

double fault_plan::first_start_ms() const {
  double t = kInf;
  for (const fault_event& e : events) t = std::min(t, e.start_ms);
  return events.empty() ? 0 : t;
}

std::optional<double> fault_plan::last_end_ms() const {
  double t = 0;
  for (const fault_event& e : events) {
    if (std::isinf(e.dur_ms)) return std::nullopt;
    t = std::max(t, e.end_ms());
  }
  return t;
}

std::optional<fault_plan> parse_fault_plan(std::string_view spec,
                                           std::string* err) {
  fault_plan plan;
  plan.spec = std::string(spec);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view tok = spec.substr(pos, comma - pos);
    if (tok.empty()) {
      if (err != nullptr) *err = "empty event in fault spec";
      return std::nullopt;
    }
    fault_event ev;
    if (!parse_event(tok, &ev, err)) return std::nullopt;
    plan.events.push_back(ev);
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  if (plan.events.empty()) {
    if (err != nullptr) *err = "empty fault spec";
    return std::nullopt;
  }
  return plan;
}

fault_director::fault_director(const fault_plan& plan, unsigned threads,
                               std::function<void(unsigned)> spawn)
    : ctl_(threads), spawn_(std::move(spawn)) {
  for (const fault_event& e : plan.events) {
    actions_.push_back({e.start_ms, e.kind, e.tid, e.count, e.delay_us,
                        /*begin=*/true});
    if (windowed(e.kind) && !std::isinf(e.dur_ms)) {
      actions_.push_back({e.end_ms(), e.kind, e.tid, 0, e.delay_us,
                          /*begin=*/false});
    }
  }
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const action& a, const action& b) {
                     return a.t_ms < b.t_ms;
                   });
  // Open t=0 windows right now, before any worker runs: a thread meant
  // to be stalled from the start (the legacy permanently-stalled mode is
  // stall:tid@0+inf) must not sneak in real operations while the clock
  // thread waits to be scheduled. One-shot kinds (burst/exit/churn) stay
  // on the clock — churn's spawn callback must not run from the
  // constructor.
  for (action& a : actions_) {
    if (a.t_ms > 0) break;
    if (a.begin && windowed(a.kind)) {
      apply(a);
      a.pre_applied = true;
    }
  }
}

fault_director::~fault_director() { stop(); }

void fault_director::start() {
  clock_ = std::thread([this] { run_clock(); });
}

void fault_director::stop() {
  quit_.store(true, std::memory_order_relaxed);
  if (clock_.joinable()) clock_.join();
  released_.store(true, std::memory_order_relaxed);
}

void fault_director::wait_stall_end(unsigned tid) const {
  const auto& c = *ctl_[tid];
  while (c.stall_depth.load(std::memory_order_relaxed) != 0 &&
         !released_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::uint64_t fault_director::claim_burst(std::uint64_t max_n) {
  std::uint64_t cur = burst_.load(std::memory_order_relaxed);
  while (cur != 0) {
    const std::uint64_t take = cur < max_n ? cur : max_n;
    if (burst_.compare_exchange_weak(cur, cur - take,
                                     std::memory_order_relaxed)) {
      return take;
    }
  }
  return 0;
}

namespace {

/// Open or close one window on a control word: additive, so
/// overlapping windows compose instead of clobbering.
void shift(std::atomic<std::uint32_t>& word, std::uint32_t by, bool open) {
  if (open) {
    word.fetch_add(by, std::memory_order_relaxed);
  } else {
    word.fetch_sub(by, std::memory_order_relaxed);
  }
}

}  // namespace

void fault_director::apply(const action& a) {
  control& c = *ctl_[a.tid];
  switch (a.kind) {
    case fault_kind::stall:
      shift(c.stall_depth, 1, a.begin);
      break;
    case fault_kind::slow:
      shift(c.slow_us, a.delay_us, a.begin);
      break;
    case fault_kind::hot:
      shift(c.inline_depth, 1, a.begin);
      break;
    case fault_kind::scan:
      shift(c.inline_depth, kScanUnit, a.begin);
      break;
    case fault_kind::burst:
      burst_.fetch_add(a.count, std::memory_order_relaxed);
      break;
    case fault_kind::churn:
      c.exit_gen.fetch_add(1, std::memory_order_relaxed);
      if (spawn_) spawn_(a.tid);
      break;
    case fault_kind::exit_thread:
      c.exit_gen.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

void fault_director::run_clock() {
  obs::name_thread("fault-director");
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t next = 0;
  while (!quit_.load(std::memory_order_relaxed)) {
    const double now_ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            std::chrono::steady_clock::now() - t0)
            .count();
    while (next < actions_.size() && actions_[next].t_ms <= now_ms) {
      const action& a = actions_[next++];
      if (!a.pre_applied) apply(a);
    }
    if (next == actions_.size()) {
      // Schedule exhausted; linger only to keep open-ended stalls pinned
      // until stop() releases them.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace hyaline::lab
