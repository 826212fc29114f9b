// run_scenario's usage errors: a flag value it does not know, or a config
// the scenario layer rejects, exits 2 with a message instead of running some
// other configuration or aborting on an uncaught exception.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <string>

namespace {

int exitCodeOf(const std::string& args) {
  const std::string cmd =
      std::string(RUN_SCENARIO_PATH) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

TEST(RunScenarioCliTest, UnknownCacheIsAUsageError) {
  EXPECT_EQ(exitCodeOf("--cache lnk"), 2);
}

TEST(RunScenarioCliTest, RejectedConfigIsAUsageError) {
  EXPECT_EQ(exitCodeOf("--nodes 0"), 2);
  EXPECT_EQ(exitCodeOf("--seeds 0"), 2);
}
