#include "src/telemetry/export.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/scenario/experiment.h"
#include "src/util/json.h"

namespace manet::telemetry {
namespace {

using sim::Time;

scenario::ScenarioConfig tinyScenario() {
  scenario::ScenarioConfig cfg;
  cfg.numNodes = 12;
  cfg.field = {600.0, 300.0};
  cfg.numFlows = 3;
  cfg.packetsPerSecond = 2.0;
  cfg.duration = Time::seconds(20);
  cfg.mobilitySeed = 11;
  cfg.telemetry = TelemetryConfig{};  // env-independent
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

TEST(ExportTest, MetricsJsonHasCountersAndDerived) {
  metrics::Metrics m;
  m.dataOriginated = 100;
  m.dataDelivered = 80;
  m.dropIfqFull = 20;
  const auto j = util::parseJson(metricsJson(m, Time::seconds(10)));
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->numberAt("data_originated", -1.0), 100.0);
  EXPECT_EQ(j->numberAt("data_delivered", -1.0), 80.0);
  EXPECT_EQ(j->numberAt("drop_ifq_full", -1.0), 20.0);
  EXPECT_EQ(j->numberAt("total_dropped", -1.0), 20.0);
  EXPECT_DOUBLE_EQ(j->numberAt("packet_delivery_fraction", -1.0), 0.8);
}

TEST(ExportTest, SeriesCsvRowsMatchSamples) {
  SampleSeries s;
  s.timeSec = {1.0, 2.0};
  s.meanCacheSize = {3.0, 4.0};
  s.invalidEntryFrac = {0.25, 0.5};
  s.meanSendBufOccupancy = {0.0, 1.0};
  s.originated = {10, 11};
  s.delivered = {9, 10};
  s.dropped = {1, 0};
  s.cacheHits = {5, 6};
  s.linkBreaks = {0, 2};
  const std::string csv = seriesCsv(s);
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 rows
  EXPECT_NE(csv.find("t_s,mean_cache_size"), std::string::npos);
  EXPECT_NE(csv.find("1.000,3.000,0.2500,0.000,10,9,1,5,0"),
            std::string::npos);
}

TEST(ExportTest, WriteFileCreatesParentDirs) {
  const std::string dir = ::testing::TempDir() + "/manet_export_nested";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/a/b/out.txt";
  ASSERT_TRUE(writeFile(path, "hello"));
  EXPECT_EQ(slurp(path), "hello");
  std::filesystem::remove_all(dir);
}

TEST(ExportTest, RunReplicatedExportsAggregateAndSeries) {
  const std::string dir = ::testing::TempDir() + "/manet_export_run";
  std::filesystem::remove_all(dir);
  scenario::ScenarioConfig cfg = tinyScenario();
  cfg.telemetry.exportDir = dir;
  cfg.telemetry.samplePeriod = Time::seconds(2);
  const scenario::AggregateResult agg =
      scenario::runReplicated(cfg, 2, {}, "export_test");

  const std::string aggJson = slurp(dir + "/export_test.json");
  ASSERT_FALSE(aggJson.empty());
  const auto doc = util::parseJson(aggJson);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->stringAt("label"), "export_test");
  const util::JsonValue* config = doc->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->stringAt("protocol"), "dsr");
  EXPECT_EQ(config->numberAt("num_nodes", -1.0), 12.0);
  EXPECT_NE(aggJson.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(aggJson.find("\"delivery_fraction\""), std::string::npos);
  EXPECT_NE(aggJson.find("\"runs\":["), std::string::npos);

  // One series CSV per replication (both runs sampled).
  for (int i = 0; i < 2; ++i) {
    const std::string csv =
        slurp(dir + "/export_test.r" + std::to_string(i) + ".series.csv");
    EXPECT_NE(csv.find("t_s,mean_cache_size"), std::string::npos) << i;
  }
  EXPECT_EQ(agg.runs.size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(ExportTest, ProfiledRunWritesProfileBesideAggregate) {
  const auto exportRun = [](bool profiled) {
    const std::string dir = ::testing::TempDir() + "/manet_export_prof" +
                            (profiled ? "_on" : "_off");
    std::filesystem::remove_all(dir);
    scenario::ScenarioConfig cfg = tinyScenario();
    cfg.prof = prof::ProfConfig{};
    cfg.prof.enabled = profiled;
    cfg.telemetry.exportDir = dir;
    scenario::runReplicated(cfg, 1, {}, "prof_test");
    return dir;
  };
  const std::string on = exportRun(true);
  const std::string off = exportRun(false);

  const std::string profile = slurp(on + "/prof_test.r0.profile.json");
  ASSERT_FALSE(profile.empty());
  EXPECT_TRUE(util::parseJson(profile).has_value());
  EXPECT_NE(profile.find("\"categories\":"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(off + "/prof_test.r0.profile.json"));

  // Wall times stay out of the aggregate: it is byte-identical either way.
  const std::string aggOn = slurp(on + "/prof_test.json");
  ASSERT_FALSE(aggOn.empty());
  EXPECT_EQ(aggOn, slurp(off + "/prof_test.json"));
  std::filesystem::remove_all(on);
  std::filesystem::remove_all(off);
}

TEST(ExportTest, NoExportDirMeansNoFiles) {
  scenario::ScenarioConfig cfg = tinyScenario();
  const scenario::AggregateResult agg = scenario::runReplicated(cfg, 1);
  EXPECT_EQ(exportAggregate(agg, cfg, "nothing"), 0);
}

TEST(PerRunPathTest, InsertsRunIndexBeforeExtension) {
  EXPECT_EQ(perRunPath("trace.jsonl", 2), "trace.r2.jsonl");
  EXPECT_EQ(perRunPath("/tmp/a.b/trace", 0), "/tmp/a.b/trace.r0");
  EXPECT_EQ(perRunPath("noext", 1), "noext.r1");
}

TEST(PerRunPathTest, SweepOverloadTagsPointLabelBeforeRunIndex) {
  EXPECT_EQ(perRunPath("trace.jsonl", "fig1_timeout_s=0.25", 1),
            "trace.fig1_timeout_s=0.25.r1.jsonl");
  EXPECT_EQ(perRunPath("noext", "p", 0), "noext.p.r0");
  // A dot inside a directory name is not an extension.
  EXPECT_EQ(perRunPath("/tmp/a.b/trace", "p", 2), "/tmp/a.b/trace.p.r2");
  // Distinct points always map to distinct files for the same rep.
  EXPECT_NE(perRunPath("t.jsonl", "sweep_a=1", 0),
            perRunPath("t.jsonl", "sweep_a=2", 0));
}

}  // namespace
}  // namespace manet::telemetry
