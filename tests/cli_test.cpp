// parse_cli unit tests: the list-handling rules (duplicate entries in
// --schemes / --threads are dropped, first occurrence wins, with a warning
// instead of silently running identical series twice), and the per-binary
// flag sets — each binary's `--help` lists exactly the flags it honours,
// and a flag outside that set or a malformed value exits 2 with a message
// naming the flag (the death tests drive each binary's own parse
// in-process: run_figure, run_check, or parse_cli over the binary's set).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/check_driver.hpp"
#include "harness/cli.hpp"
#include "harness/figures.hpp"

namespace hyaline::harness {
namespace {

using ::testing::ExitedWithCode;

cli_options parse(flag_set accepted, std::vector<const char*> args,
                  cli_options defaults = {}) {
  args.insert(args.begin(), "test_prog");
  return parse_cli(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()), defaults, accepted);
}

int figure_main(const figure_spec& spec, std::vector<const char*> args) {
  args.insert(args.begin(), "test_prog");
  return run_figure(spec, static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

int check_main(std::vector<const char*> args) {
  args.insert(args.begin(), "test_prog");
  return check::run_check(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()));
}

/// The flag names `--help` lists for a set (one flag per line after the
/// "usage:" line).
std::set<std::string> listed(flag_set accepted) {
  std::istringstream in(usage_text("test_prog", accepted));
  std::set<std::string> out;
  std::string line;
  std::getline(in, line);
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string name;
    words >> name;
    out.insert(name);
  }
  return out;
}

TEST(CliTest, ThreadsListDeduplicatesPreservingOrder) {
  const cli_options o = parse(kFigureFlags, {"--threads", "4,4,2,8,2,4"});
  EXPECT_EQ(o.threads, (std::vector<unsigned>{4, 2, 8}));
  EXPECT_TRUE(o.given.has(flag::threads));
}

TEST(CliTest, StalledListDeduplicates) {
  const cli_options o = parse(kRobustnessFlags, {"--stalled", "0,1,0,2,1"});
  EXPECT_EQ(o.stalled, (std::vector<unsigned>{0, 1, 2}));
}

TEST(CliTest, SchemesListDeduplicatesPreservingOrder) {
  const cli_options o =
      parse(kFigureFlags, {"--schemes", "HP,Hyaline,HP,HE,Hyaline"});
  EXPECT_EQ(o.schemes,
            (std::vector<std::string>{"HP", "Hyaline", "HE"}));
  EXPECT_TRUE(o.scheme_enabled("HE"));
  EXPECT_FALSE(o.scheme_enabled("Epoch"));
}

TEST(CliTest, DefaultListsAreNotFlaggedAsExplicit) {
  cli_options defaults;
  defaults.threads = {1, 2};
  const cli_options o = parse(kFigureFlags, {"--duration", "100"}, defaults);
  EXPECT_EQ(o.threads, (std::vector<unsigned>{1, 2}));
  EXPECT_FALSE(o.given.has(flag::threads));
  EXPECT_FALSE(o.given.has(flag::range));
  EXPECT_EQ(o.duration_ms, 100u);
}

TEST(CliTest, ProducerConsumerListsParse) {
  const cli_options o =
      parse(kContainerFlags, {"--producers", "1,2,4", "--consumers", "4"});
  EXPECT_EQ(o.producers, (std::vector<unsigned>{1, 2, 4}));
  EXPECT_EQ(o.consumers, (std::vector<unsigned>{4}));
  // Set-only flags stay untouched defaults.
  EXPECT_TRUE(o.mix.empty());
  EXPECT_FALSE(o.given.has(flag::range));
}

TEST(CliTest, RangeFlagIsTracked) {
  const cli_options o = parse(kFigureFlags, {"--range", "1024"});
  EXPECT_EQ(o.key_range, 1024u);
  EXPECT_TRUE(o.given.has(flag::range));
}

TEST(CliTest, MixParsesWhenSummingToHundred) {
  const cli_options o = parse(kFigureFlags, {"--mix", "30,20,50"});
  EXPECT_EQ(o.mix, (std::vector<unsigned>{30, 20, 50}));
}

TEST(CliTest, FullOverridesDurationAndRepeats) {
  const cli_options o = parse(kFigureFlags, {"--full"});
  EXPECT_EQ(o.duration_ms, 10000u);
  EXPECT_EQ(o.repeats, 5u);
}

TEST(CliTest, SeedParsesDecimalAndHex) {
  EXPECT_EQ(parse(kFigureFlags, {"--seed", "12345"}).seed, 12345u);
  // Hex round-trips from the CSV header comment (`# seed=0x...`).
  EXPECT_EQ(parse(kFigureFlags, {"--seed", "0x5eed"}).seed, 0x5eedu);
  EXPECT_EQ(cli_options{}.seed, 0x5eedu);  // matches workload_config
}

TEST(CliTest, LabFlagsParse) {
  const cli_options o =
      parse(kTimelineFlags, {"--faults", "stall:2@500ms+300ms",
                             "--sample-ms", "25", "--structure", "msqueue"});
  EXPECT_EQ(o.faults, "stall:2@500ms+300ms");
  EXPECT_EQ(o.sample_ms, 25u);
  EXPECT_TRUE(o.given.has(flag::sample_ms));
  EXPECT_EQ(o.structure, "msqueue");
}

TEST(CliTest, LabFlagsDefaultToUnset) {
  const cli_options o = parse(kTimelineFlags, {"--duration", "100"});
  EXPECT_TRUE(o.faults.empty());
  EXPECT_FALSE(o.given.has(flag::sample_ms));
  EXPECT_TRUE(o.structure.empty());
}

TEST(CliTest, SingleThreadCountParsesOneValue) {
  const cli_options o = parse(kSweepFlags, {"--threads", "3"});
  EXPECT_EQ(o.threads, (std::vector<unsigned>{3}));
  EXPECT_TRUE(o.given.has(flag::thread_count));
}

// Each binary's whole accepted set, as listed by its --help: 13 flags on
// each of the five set figures, then 14, 12, 14, 19, 12, 8, 8 and 5 —
// 157 (binary, flag) pairs.
TEST(CliTest, HelpListsExactlyEachBinarysFlags) {
  const std::set<std::string> set_figure = {
      "--threads", "--duration", "--repeats", "--prefill", "--range",
      "--schemes", "--mix",      "--shards",  "--seed",    "--lat-sample",
      "--trace",   "--json",     "--full"};
  std::set<std::string> robustness = set_figure;
  robustness.insert("--stalled");
  EXPECT_EQ(listed(figure_flags(figure_kind::matrix)), set_figure);
  EXPECT_EQ(listed(figure_flags(figure_kind::trim)), set_figure);
  EXPECT_EQ(listed(figure_flags(figure_kind::robustness)), robustness);
  EXPECT_EQ(listed(figure_flags(figure_kind::container)),
            (std::set<std::string>{"--producers", "--consumers", "--duration",
                                   "--repeats", "--prefill", "--schemes",
                                   "--shards", "--seed", "--lat-sample",
                                   "--trace", "--json", "--full"}));
  EXPECT_EQ(listed(figure_flags(figure_kind::timeline)),
            (std::set<std::string>{"--threads", "--duration", "--prefill",
                                   "--range", "--mix", "--schemes",
                                   "--shards", "--seed", "--lat-sample",
                                   "--trace", "--json", "--faults",
                                   "--sample-ms", "--structure"}));
  EXPECT_EQ(listed(kServiceFlags),
            (std::set<std::string>{
                "--duration", "--prefill", "--range", "--mix", "--schemes",
                "--shards", "--seed", "--trace", "--json", "--metrics",
                "--sample-ms", "--svc-shards", "--tenants", "--rate",
                "--skew", "--arrival", "--tenant-script", "--slo",
                "--churn"}));
  EXPECT_EQ(listed(kCheckFlags),
            (std::set<std::string>{"--threads", "--duration", "--prefill",
                                   "--range", "--mix", "--schemes",
                                   "--shards", "--seed", "--faults",
                                   "--structure", "--mutate",
                                   "--counterexample"}));
  EXPECT_EQ(listed(kAblationFlags),
            (std::set<std::string>{"--threads", "--duration", "--repeats",
                                   "--prefill", "--range", "--seed",
                                   "--lat-sample", "--full"}));
  EXPECT_EQ(listed(kSweepFlags),
            (std::set<std::string>{"--out", "--threads", "--duration",
                                   "--repeats", "--seed", "--fastpath",
                                   "--shards", "--schemes"}));
  EXPECT_EQ(listed(kOpcostFlags),
            (std::set<std::string>{"--iters", "--fastpath", "--shards",
                                   "--schemes", "--json"}));
}

// Fork-free death tests: each EXPECT_EXIT re-runs this binary up to the
// statement, so no forked child inherits another thread's state.
class CliDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(CliDeathTest, HelpListsTheSetAndExits2) {
  EXPECT_EXIT(parse(kOpcostFlags, {"--help"}), ExitedWithCode(2),
              "--iters n");
}

// Flags each of these binaries parsed and then ignored. The --duration 1
// up front bounds the run should a flag ever be accepted again.
TEST_F(CliDeathTest, CheckRejectsFlagsItDoesNotHonour) {
  EXPECT_EXIT(check_main({"--duration", "1", "--trace", "t.json"}),
              ExitedWithCode(2), "unknown flag .*--trace");
  EXPECT_EXIT(check_main({"--duration", "1", "--tenants", "2"}),
              ExitedWithCode(2), "unknown flag .*--tenants");
  EXPECT_EXIT(check_main({"--duration", "1", "--lat-sample", "8"}),
              ExitedWithCode(2), "unknown flag .*--lat-sample");
}

TEST_F(CliDeathTest, AblationRejectsFlagsItDoesNotHonour) {
  EXPECT_EXIT(parse(kAblationFlags, {"--json", "a.json"}), ExitedWithCode(2),
              "unknown flag .*--json");
  EXPECT_EXIT(parse(kAblationFlags, {"--schemes", "Epoch"}),
              ExitedWithCode(2), "unknown flag .*--schemes");
}

TEST_F(CliDeathTest, SetFiguresRejectStalled) {
  EXPECT_EXIT(figure_main({.name = "fig8-9-write"},
                     {"--duration", "1", "--stalled", "1"}),
              ExitedWithCode(2), "unknown flag .*--stalled");
  EXPECT_EXIT(figure_main({.name = "fig10b-trim", .kind = figure_kind::trim},
                     {"--duration", "1", "--stalled", "1"}),
              ExitedWithCode(2), "unknown flag .*--stalled");
}

TEST_F(CliDeathTest, SingleThreadCountRejectsALists) {
  EXPECT_EXIT(figure_main({.name = "fig10a-robustness",
                      .kind = figure_kind::robustness},
                     {"--duration", "1", "--threads", "2,4"}),
              ExitedWithCode(2), "--threads: bad value '2,4'");
  EXPECT_EXIT(parse(kSweepFlags, {"--threads", "2,4"}), ExitedWithCode(2),
              "--threads: bad value '2,4'");
}

TEST_F(CliDeathTest, NumbersRejectTrailingCharacters) {
  EXPECT_EXIT(parse(kOpcostFlags, {"--shards", "3x"}), ExitedWithCode(2),
              "--shards: bad value '3x'");
  EXPECT_EXIT(parse(kOpcostFlags, {"--iters", "1e5"}), ExitedWithCode(2),
              "--iters: bad value '1e5'");
  EXPECT_EXIT(parse(kFigureFlags, {"--duration", "1e3"}), ExitedWithCode(2),
              "--duration: bad value '1e3'");
}

}  // namespace
}  // namespace hyaline::harness
