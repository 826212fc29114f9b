#include "src/scenario/bench_cli.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace manet::scenario {
namespace {

/// Builds a BenchCli from `args` (argv[0] excluded), as a bench's main()
/// would receive them.
BenchCli parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  return BenchCli(static_cast<int>(args.size()), argv.data(), "bench");
}

TEST(BenchCliTest, RemovedCampaignFlagsAreUnknown) {
  for (const char* flag : {"--journal", "--resume", "--isolate-cells",
                           "--cell-timeout", "--retries", "--run-cell"}) {
    EXPECT_EXIT(parse({flag, "1"}), ::testing::ExitedWithCode(2),
                "unknown flag")
        << flag;
  }
}

TEST(BenchCliTest, MalformedFilterExitsWithUsageError) {
  EXPECT_EXIT(parse({"--filter", "pause_s"}), ::testing::ExitedWithCode(2),
              "--filter expects AXIS=VALUE");
  EXPECT_EXIT(parse({"--filter", "=0"}), ::testing::ExitedWithCode(2),
              "--filter expects AXIS=VALUE");
}

TEST(BenchCliTest, SeedsAndJobsReachRunnerOptions) {
  const BenchCli cli = parse({"--seeds", "3", "--jobs", "2"});
  const RunnerOptions opts = cli.runnerOptions();
  EXPECT_EQ(opts.replications, 3);
  EXPECT_EQ(opts.jobs, 2);
  EXPECT_FALSE(opts.progress);
}

}  // namespace
}  // namespace manet::scenario
