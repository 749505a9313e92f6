// Tests for the CLI flag parser (util/flags.h): flag syntaxes, boolean
// flags, last-wins repetition, positional collection, and the
// RequireFlags/AllowFlags validators rlplanner_cli builds its usage
// errors from. The second half runs the built rlplanner_cli binary: usage
// errors for unknown flags and flag values, and the save-snapshot →
// load-snapshot round trip in both snapshot formats.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/status.h"

namespace rlplanner::util {
namespace {

CommandLine Parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "rlplanner_cli");
  return ParseCommandLine(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesCommandAndFlagSyntaxes) {
  const CommandLine cmd =
      Parse({"plan", "--dataset", "univ1-dsct", "--episodes=250", "--quiet"});
  EXPECT_EQ(cmd.command, "plan");
  EXPECT_EQ(cmd.GetFlagOr("dataset", ""), "univ1-dsct");
  EXPECT_EQ(cmd.GetFlagOr("episodes", ""), "250");
  // A value-less flag is boolean and binds "1".
  EXPECT_TRUE(cmd.HasFlag("quiet"));
  EXPECT_EQ(cmd.GetFlagOr("quiet", ""), "1");
  EXPECT_TRUE(cmd.positional.empty());
}

TEST(FlagsTest, EmptyArgvHasNoCommand) {
  const CommandLine cmd = Parse({});
  EXPECT_TRUE(cmd.command.empty());
  EXPECT_TRUE(cmd.flags.empty());
}

TEST(FlagsTest, RepeatedFlagKeepsLastValue) {
  const CommandLine cmd = Parse({"plan", "--seed", "1", "--seed", "2"});
  EXPECT_EQ(cmd.GetFlagOr("seed", ""), "2");
}

TEST(FlagsTest, EqualsSyntaxAllowsEmptyAndEmbeddedEquals) {
  const CommandLine cmd = Parse({"plan", "--out=", "--expr=a=b"});
  EXPECT_TRUE(cmd.HasFlag("out"));
  EXPECT_EQ(cmd.GetFlagOr("out", "x"), "");
  EXPECT_EQ(cmd.GetFlagOr("expr", ""), "a=b");
}

TEST(FlagsTest, CollectsPositionalTokens) {
  const CommandLine cmd = Parse({"plan", "stray", "--dataset", "toy", "more"});
  EXPECT_EQ(cmd.command, "plan");
  ASSERT_EQ(cmd.positional.size(), 2u);
  EXPECT_EQ(cmd.positional[0], "stray");
  EXPECT_EQ(cmd.positional[1], "more");
  EXPECT_EQ(cmd.GetFlagOr("dataset", ""), "toy");
}

TEST(FlagsTest, GetFlagReturnsNulloptWhenUnset) {
  const CommandLine cmd = Parse({"plan"});
  EXPECT_FALSE(cmd.GetFlag("dataset").has_value());
  EXPECT_EQ(cmd.GetFlagOr("dataset", "fallback"), "fallback");
}

TEST(FlagsTest, RequireFlagsNamesEveryMissingFlag) {
  const CommandLine cmd = Parse({"export", "--dataset", "toy"});
  EXPECT_TRUE(RequireFlags(cmd, {"dataset"}).ok());

  const Status missing = RequireFlags(cmd, {"dataset", "out", "format"});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.message().find("--out"), std::string::npos);
  EXPECT_NE(missing.message().find("--format"), std::string::npos);
  EXPECT_EQ(missing.message().find("--dataset"), std::string::npos);
}

TEST(FlagsTest, AllowFlagsCatchesTypos) {
  const CommandLine cmd = Parse({"plan", "--dataest", "toy"});
  const Status typo = AllowFlags(cmd, {"dataset", "seed"});
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typo.message().find("dataest"), std::string::npos);

  const CommandLine ok = Parse({"plan", "--dataset", "toy"});
  EXPECT_TRUE(AllowFlags(ok, {"dataset", "seed"}).ok());
}

}  // namespace
}  // namespace rlplanner::util

namespace rlplanner {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  // stdout and stderr, interleaved
};

// Runs the built rlplanner_cli with `args` and captures what it prints.
CliRun RunCli(const std::string& args) {
  const std::string command =
      std::string(RLPLANNER_CLI_PATH) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// The "plan:", "check:" and "score:" lines of a plan/load-snapshot run —
// everything that describes the recommended plan, without timing lines.
std::string PlanLines(const std::string& output) {
  std::istringstream in(output);
  std::string line;
  std::string plan;
  while (std::getline(in, line)) {
    if (line.rfind("plan:", 0) == 0 || line.rfind("check:", 0) == 0 ||
        line.rfind("score:", 0) == 0) {
      plan += line + "\n";
    }
  }
  return plan;
}

TEST(CliBinaryTest, UnknownModeIsUsageError) {
  // Hogwild training is gone; the value must not fall back to serial.
  const CliRun run = RunCli("train --dataset toy --mode hogwild");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--mode"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("hogwild"), std::string::npos) << run.output;
}

TEST(CliBinaryTest, UnknownQReprIsUsageError) {
  const CliRun run = RunCli("plan --dataset toy --q-repr packed");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--q-repr"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("packed"), std::string::npos) << run.output;
}

TEST(CliBinaryTest, SavePolicyFlagIsUsageError) {
  // CSV policy files are gone; save-snapshot writes the policy instead.
  const CliRun run = RunCli("plan --dataset toy --save-policy policy.csv");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--save-policy"), std::string::npos)
      << run.output;
}

TEST(CliBinaryTest, KnownModeAndQReprValuesTrain) {
  const CliRun run = RunCli(
      "train --dataset toy --episodes 20 --mode det --workers 2 "
      "--q-repr sparse");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("mode det, 2 workers"), std::string::npos)
      << run.output;
}

// save-snapshot → load-snapshot recommends exactly what `plan` does with
// the same training flags.
void ExpectSnapshotRoundTripMatchesPlan(const std::string& format_flag,
                                        const std::string& file_name) {
  const std::string training = "--dataset univ1-dsct --episodes 120 --seed 7";
  const CliRun plan = RunCli("plan " + training);
  ASSERT_EQ(plan.exit_code, 0) << plan.output;
  ASSERT_FALSE(PlanLines(plan.output).empty()) << plan.output;

  const std::string path = testing::TempDir() + "/" + file_name;
  const CliRun save =
      RunCli("save-snapshot " + training + format_flag + " --out " + path);
  ASSERT_EQ(save.exit_code, 0) << save.output;
  const CliRun load = RunCli("load-snapshot --dataset univ1-dsct --in " + path);
  std::remove(path.c_str());
  ASSERT_EQ(load.exit_code, 0) << load.output;
  EXPECT_EQ(PlanLines(load.output), PlanLines(plan.output)) << load.output;
}

TEST(CliBinaryTest, DenseSnapshotRoundTripMatchesPlan) {
  ExpectSnapshotRoundTripMatchesPlan("", "cli_test_v1.snap");
}

TEST(CliBinaryTest, SparseV2SnapshotRoundTripMatchesPlan) {
  ExpectSnapshotRoundTripMatchesPlan(" --v2", "cli_test_v2.snap");
}

}  // namespace
}  // namespace rlplanner
