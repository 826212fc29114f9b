// `manet_bench run`'s usage errors: a flag value it does not know, a
// malformed number, or a config the scenario layer rejects exits 2 with a
// message instead of running some other configuration or aborting on an
// uncaught exception. Its --help prints the defaults a run really uses.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

int exitCodeOf(const std::string& args) {
  const std::string cmd =
      std::string(RUN_SCENARIO_PATH) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ManetBenchRunCliTest, UnknownCacheIsAUsageError) {
  EXPECT_EQ(exitCodeOf("--cache lnk"), 2);
}

TEST(ManetBenchRunCliTest, RejectedConfigIsAUsageError) {
  EXPECT_EQ(exitCodeOf("--nodes 0"), 2);
  EXPECT_EQ(exitCodeOf("--seeds 0"), 2);
}

TEST(ManetBenchRunCliTest, MalformedNumberIsAUsageError) {
  EXPECT_EQ(exitCodeOf("--seed abc"), 2);
  EXPECT_EQ(exitCodeOf("--nodes 10x"), 2);
  EXPECT_EQ(exitCodeOf("--payload -5"), 2);
}

TEST(ManetBenchRunCliTest, HelpNamesTheDurationARunUses) {
  const std::string cmd = std::string(RUN_SCENARIO_PATH) + " --help 2>&1";
  std::FILE* p = popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string help;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) help += buf;
  const int status = pclose(p);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // ScenarioConfig::duration is 500 s; the help once said 120.
  EXPECT_NE(help.find("simulated seconds            (default 500)"),
            std::string::npos)
      << help;
}

}  // namespace
