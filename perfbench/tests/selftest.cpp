// Self-test of the benchmark's own instruments: the log-linear histogram
// reads p50/p99 of known distributions within 1%, the correctness ledger
// trips on a wrong count, and the span CSV holds every span field. Exit 0 =
// all checks pass.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "hist.hpp"
#include "ledger.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Nearest-rank percentile of a sorted vector: the reference the
/// histogram is checked against.
double exact(const std::vector<std::uint64_t>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return static_cast<double>(sorted[rank - 1]);
}

void check_distribution(const char* name, std::vector<std::uint64_t> v) {
  perfbench::log_linear_hist h;
  for (std::uint64_t x : v) h.record(x);
  std::sort(v.begin(), v.end());
  for (double q : {0.50, 0.99}) {
    const double want = exact(v, q);
    const double got = h.percentile(q);
    const double err = std::abs(got - want) / want;
    std::printf("%-12s p%-3.0f exact %12.1f hist %12.1f err %.4f%%\n", name,
                q * 100, want, got, err * 100);
    expect(err <= 0.01, name);
  }
}

void test_histogram() {
  // Uniform over [1, 10^6].
  std::vector<std::uint64_t> uni;
  for (std::uint64_t i = 1; i <= 1000000; ++i) uni.push_back(i);
  check_distribution("uniform", uni);

  // Exponential, mean 1000, by inverse CDF on an even grid.
  std::vector<std::uint64_t> expo;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = (i + 0.5) / n;
    expo.push_back(static_cast<std::uint64_t>(-1000.0 * std::log(1 - u)));
  }
  check_distribution("exponential", expo);

  // Latency-like: a tight body near 70 plus a 2% tail near 20000.
  std::vector<std::uint64_t> lat;
  for (int i = 0; i < 98000; ++i) lat.push_back(60 + i % 25);
  for (int i = 0; i < 2000; ++i) lat.push_back(19000 + 7 * i);
  check_distribution("bimodal", lat);

  // Bucket geometry: contiguous, and no bucket wider than 1/128 of its
  // lower edge past the exact range.
  using H = perfbench::log_linear_hist;
  bool contiguous = true;
  bool narrow = true;
  for (unsigned i = 0; i + 1 < H::kBuckets; ++i) {
    if (H::lower(i) + H::width(i) != H::lower(i + 1)) contiguous = false;
    if (i >= H::kExact &&
        static_cast<double>(H::width(i)) / H::lower(i) > 1.0 / 128) {
      narrow = false;
    }
  }
  expect(contiguous, "buckets are contiguous");
  expect(narrow, "bucket width <= 1/128 of its lower edge");
  expect(H::index(~std::uint64_t{0}) == H::kBuckets - 1, "top bucket");
  for (std::uint64_t v : {0ull, 1ull, 255ull, 256ull, 257ull, 1000ull,
                          123456789ull}) {
    const unsigned i = H::index(v);
    expect(H::lower(i) <= v && v < H::lower(i) + H::width(i),
           "value lies in its bucket");
  }
  H empty;
  expect(empty.percentile(0.99) == 0, "empty histogram reads 0");
}

void test_ledger() {
  perfbench::ledger good;
  good.prefill = 2048;
  good.inserts_ok = 500;
  good.removes_ok = 480;
  good.observed = 2068;
  good.retired = 480;
  good.freed = 480;
  expect(perfbench::violations(good).empty(), "consistent ledger passes");

  perfbench::ledger count = good;
  count.observed = 2067;  // one element lost
  expect(perfbench::violations(count).size() == 1, "wrong count trips");

  perfbench::ledger leak = good;
  leak.freed = 479;  // one retired node never freed
  expect(perfbench::violations(leak).size() == 1, "leak trips");

  perfbench::ledger open = good;
  open.open_loop = true;
  open.scheduled = 1000;
  open.completed = 1000;
  expect(perfbench::violations(open).empty(), "balanced schedule passes");
  open.completed = 999;  // one scheduled op never run
  expect(perfbench::violations(open).size() == 1, "unbalanced schedule trips");

  perfbench::ledger under = good;
  under.prefill = 0;
  under.inserts_ok = 1;
  under.removes_ok = 2;  // more removes than elements ever present
  under.observed = 0;
  expect(!perfbench::violations(under).empty(), "negative count trips");
}

void test_spans_csv() {
  using perfbench::span_kind;
  // Two workers at 2 ticks per ns; the second holds one open-loop request
  // whose svc.wait child starts before the CSV's origin.
  std::vector<perfbench::span_buffer> bufs(2);
  bufs[0].push_back({1000, 1200, 7, perfbench::kNoParent, span_kind::op, 5});
  bufs[0].push_back({1010, 1050, 7, 0, span_kind::smr_enter, 1});
  bufs[1].push_back({990, 1400, (1ull << 48) + 1, perfbench::kNoParent,
                     span_kind::request, 0});
  bufs[1].push_back({990, 1100, (1ull << 48) + 1, 0, span_kind::svc_wait, 0});
  char* text = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&text, &len);
  perfbench::write_spans_csv(f, bufs, 1000, 2.0);
  std::fclose(f);
  const std::string want =
      "thread,index,name,start_ns,end_ns,parent,request\n"
      "0,0,op,0,100,-1,7\n"
      "0,1,smr.enter,5,25,0,7\n"
      "1,0,request,-5,200,-1,281474976710657\n"
      "1,1,svc.wait,-5,50,0,281474976710657\n";
  expect(std::string(text, len) == want, "span CSV rows");
  std::free(text);
}

}  // namespace

int main() {
  test_histogram();
  test_ledger();
  test_spans_csv();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
