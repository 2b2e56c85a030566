// bench_diff, the trajectory gate CI runs against BENCH_22.json: its
// verdicts and exit codes on small hand-written trajectory files, loaded
// through harness/trajectory.cpp and harness/json.hpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/trajectory.hpp"

namespace hyaline::harness {
namespace {

struct cell {
  const char* structure;
  const char* scheme;
  double mops;
  bool external;
};

const std::vector<cell> kCells = {
    {"hashmap", "Hyaline", 10.0, false},
    {"hashmap", "Epoch", 12.0, false},
    {"hashmap", "Mutex", 3.0, true},
};

/// A version-1 trajectory file of `cells`, every non-external `mops`
/// times `scale`.
std::string write_sweep(const std::string& name,
                        const std::vector<cell>& cells, double scale = 1.0) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f,
               "{\"bench\": \"sweep\", \"version\": 1, \"seed\": 7,\n"
               " \"provenance\": {\"git_sha\": \"abc\", \"compiler\": "
               "\"gcc\", \"cpu_model\": \"cpu\", \"hw_threads\": 4},\n"
               " \"cells\": [");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const cell& c = cells[i];
    std::fprintf(f,
                 "%s\n  {\"cell\": \"set-write\", \"structure\": \"%s\", "
                 "\"scheme\": \"%s\", \"threads\": 2, \"mops\": %.4f, "
                 "\"unreclaimed_peak\": 0, \"external\": %s}",
                 i == 0 ? "" : ",", c.structure, c.scheme,
                 c.external ? c.mops : c.mops * scale,
                 c.external ? "true" : "false");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return path;
}

/// Run the gate; its report goes to *out.
int diff(std::vector<std::string> args, std::string* out = nullptr) {
  std::vector<char*> argv{const_cast<char*>("bench_diff")};
  for (std::string& a : args) argv.push_back(a.data());
  ::testing::internal::CaptureStdout();
  const int status = run_bench_diff(static_cast<int>(argv.size()), argv.data());
  const std::string text = ::testing::internal::GetCapturedStdout();
  if (out != nullptr) *out = text;
  return status;
}

/// The report line of `scheme`'s row.
std::string row_of(const std::string& report, const std::string& scheme) {
  std::istringstream in(report);
  for (std::string line; std::getline(in, line);) {
    if (line.find(" " + scheme + " ") != std::string::npos) return line;
  }
  return "";
}

TEST(BenchDiff, SelfDiffPassesAndMutexRowsAreBaseline) {
  const std::string path = write_sweep("bench_diff_self.json", kCells);
  std::string report;
  EXPECT_EQ(diff({path, path, "--require-cells"}, &report), 0) << report;
  EXPECT_TRUE(row_of(report, "Hyaline").ends_with("ok")) << report;
  EXPECT_TRUE(row_of(report, "Mutex").ends_with("baseline")) << report;
  std::remove(path.c_str());
}

TEST(BenchDiff, ATenfoldSlowdownRegresses) {
  const std::string old_path = write_sweep("bench_diff_old.json", kCells);
  const std::string slow_path =
      write_sweep("bench_diff_slow.json", kCells, 0.1);
  std::string report;
  // CI's values, then the defaults.
  EXPECT_EQ(diff({old_path, slow_path, "--tolerance", "0.75", "--min-mops",
                  "0.25", "--require-cells"},
                 &report),
            1);
  EXPECT_TRUE(row_of(report, "Epoch").ends_with("REGRESSION")) << report;
  EXPECT_TRUE(row_of(report, "Mutex").ends_with("baseline")) << report;
  EXPECT_EQ(diff({old_path, slow_path}), 1);
  std::remove(old_path.c_str());
  std::remove(slow_path.c_str());
}

TEST(BenchDiff, ADroppedCellFailsUnderRequireCells) {
  const std::string old_path = write_sweep("bench_diff_all.json", kCells);
  const std::string dropped_path =
      write_sweep("bench_diff_dropped.json", {kCells[0], kCells[2]});
  std::string report;
  EXPECT_EQ(diff({old_path, dropped_path}, &report), 0) << report;
  EXPECT_TRUE(row_of(report, "Epoch").ends_with("dropped")) << report;
  EXPECT_EQ(diff({old_path, dropped_path, "--require-cells"}), 1);
  std::remove(old_path.c_str());
  std::remove(dropped_path.c_str());
}

TEST(BenchDiff, MalformedFilesAndValuesExit2) {
  const std::string good = write_sweep("bench_diff_good.json", kCells);
  const std::string truncated = ::testing::TempDir() + "bench_diff_cut.json";
  std::FILE* f = std::fopen(truncated.c_str(), "w");
  std::fputs("{\"bench\": \"sweep\", \"version\": 1, \"seed\": 7, \"cells\": [",
             f);
  std::fclose(f);
  const std::string future = ::testing::TempDir() + "bench_diff_v2.json";
  f = std::fopen(future.c_str(), "w");
  std::fputs("{\"version\": 2, \"seed\": 7, \"cells\": []}\n", f);
  std::fclose(f);

  EXPECT_EQ(diff({good, truncated}), 2);
  EXPECT_EQ(diff({future, good}), 2);
  EXPECT_EQ(diff({good, ::testing::TempDir() + "bench_diff_missing.json"}),
            2);
  EXPECT_EQ(diff({good}), 2);
  EXPECT_EQ(diff({good, good, "--tolerance", "abc"}), 2);
  EXPECT_EQ(diff({good, good, "--tolerance", "1"}), 2);
  EXPECT_EQ(diff({good, good, "--tolerance"}), 2);
  EXPECT_EQ(diff({good, good, "--min-mops", "0.25x"}), 2);
  EXPECT_EQ(diff({good, good, "--min-mops", "-1"}), 2);
  EXPECT_EQ(diff({good, good, "--shards", "2"}), 2);
  EXPECT_EQ(diff({good, good, good}), 2);
  for (const std::string& path : {good, truncated, future}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace hyaline::harness
