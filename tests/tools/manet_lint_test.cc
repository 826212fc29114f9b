// Rule-by-rule coverage for the determinism linter: every rule gets a
// positive hit, an allowlisted suppression, and a clean file; plus the
// allow-syntax meta rules, the lexer's comment/string immunity, and a scan of
// the real source tree against its allow budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "tools/manet_lint/lint.h"

namespace manet::lint {
namespace {

bool hasRule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

int lineOf(const std::vector<Finding>& fs, const std::string& rule) {
  for (const Finding& f : fs) {
    if (f.rule == rule) return f.line;
  }
  return -1;
}

// ------------------------------------------------------------------ raw-rng

TEST(ManetLintTest, RawRngFlagsRandCall) {
  const auto fs = lintSource("src/core/x.cc", "int f() { return rand(); }\n");
  ASSERT_TRUE(hasRule(fs, "raw-rng"));
  EXPECT_EQ(lineOf(fs, "raw-rng"), 1);
}

TEST(ManetLintTest, RawRngFlagsSrandAndRandomDevice) {
  EXPECT_TRUE(hasRule(lintSource("src/net/x.cc", "void f() { srand(7); }\n"),
                      "raw-rng"));
  EXPECT_TRUE(hasRule(
      lintSource("tests/foo_test.cc", "std::random_device rd;\n"),
      "raw-rng"));
  EXPECT_TRUE(hasRule(
      lintSource("src/mac/x.cc", "#include <random>\nstd::random_device rd;\n"),
      "raw-rng"));
}

TEST(ManetLintTest, RawRngAllowedInRngTranslationUnit) {
  EXPECT_TRUE(lintSource("src/sim/rng.cc", "int x = rand();\n").empty());
  EXPECT_TRUE(lintSource("src/sim/rng.h", "int x = rand();\n").empty());
}

TEST(ManetLintTest, RawRngSuppressedWithJustification) {
  const auto fs = lintSource(
      "src/core/x.cc",
      "// manet-lint: allow(raw-rng): documented seeding example\n"
      "int f() { return rand(); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(ManetLintTest, OperandDoesNotTriggerRawRng) {
  EXPECT_TRUE(
      lintSource("src/core/x.cc", "int operand(int a) { return a; }\n")
          .empty());
}

// --------------------------------------------------------------- wall-clock

TEST(ManetLintTest, WallClockFlagsSteadyClockOutsideProf) {
  const auto fs = lintSource(
      "src/mac/x.cc", "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(hasRule(fs, "wall-clock"));
}

TEST(ManetLintTest, WallClockExemptInProfAndBench) {
  EXPECT_TRUE(
      lintSource("src/prof/x.cc",
                 "auto t = std::chrono::steady_clock::now();\n")
          .empty());
  EXPECT_TRUE(
      lintSource("bench/x.cc",
                 "auto t = std::chrono::high_resolution_clock::now();\n")
          .empty());
}

TEST(ManetLintTest, WallClockSuppressible) {
  const auto fs = lintSource(
      "src/scenario/x.cc",
      "// manet-lint: allow(wall-clock): report-only wall timing\n"
      "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------- unordered-iter

TEST(ManetLintTest, UnorderedIterFlagsRangedFor) {
  const auto fs = lintSource(
      "src/core/x.cc",
      "std::unordered_map<int, int> m_;\n"
      "void f() { for (auto& [k, v] : m_) { (void)k; (void)v; } }\n");
  ASSERT_TRUE(hasRule(fs, "unordered-iter"));
  EXPECT_EQ(lineOf(fs, "unordered-iter"), 2);
}

TEST(ManetLintTest, UnorderedIterFlagsBeginCall) {
  const auto fs = lintSource("src/sim/x.cc",
                             "std::unordered_set<int> s_;\n"
                             "auto f() { return s_.begin(); }\n");
  EXPECT_TRUE(hasRule(fs, "unordered-iter"));
}

TEST(ManetLintTest, UnorderedIterSeesDeclarationInPairedHeader) {
  const auto fs = lintSource(
      "src/mac/x.cc", "void C::f() { for (auto& e : tbl_) { (void)e; } }\n",
      "class C { std::unordered_map<int, long> tbl_; };\n");
  EXPECT_TRUE(hasRule(fs, "unordered-iter"));
}

TEST(ManetLintTest, UnorderedIterIgnoresPointLookupsAndOrderedMaps) {
  EXPECT_TRUE(lintSource("src/core/x.cc",
                         "std::unordered_map<int, int> m_;\n"
                         "bool f(int k) { return m_.find(k) != m_.end(); }\n")
                  .empty());
  EXPECT_TRUE(lintSource("src/core/x.cc",
                         "std::map<int, int> m_;\n"
                         "void f() { for (auto& e : m_) { (void)e; } }\n")
                  .empty());
}

TEST(ManetLintTest, UnorderedIterOutOfScopeInReportingLayers) {
  const auto fs = lintSource(
      "src/telemetry/x.cc",
      "std::unordered_map<int, int> m_;\n"
      "void f() { for (auto& e : m_) { (void)e; } }\n");
  EXPECT_FALSE(hasRule(fs, "unordered-iter"));
}

TEST(ManetLintTest, UnorderedIterSuppressible) {
  const auto fs = lintSource(
      "src/core/x.cc",
      "std::unordered_set<int> s_;\n"
      "// manet-lint: allow(unordered-iter): order-insensitive sum\n"
      "int f() { int t = 0; for (int v : s_) t += v; return t; }\n");
  EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------- sched-category

TEST(ManetLintTest, SchedCategoryFlagsUntaggedCall) {
  const auto fs = lintSource(
      "src/traffic/x.cc",
      "void f(sim::Scheduler& s) {\n"
      "  s.scheduleAt(sim::Time::seconds(1), [] {});\n"
      "}\n");
  ASSERT_TRUE(hasRule(fs, "sched-category"));
  EXPECT_EQ(lineOf(fs, "sched-category"), 2);
}

TEST(ManetLintTest, SchedCategoryAcceptsTaggedMultiLineCall) {
  const auto fs = lintSource(
      "src/fault/x.cc",
      "void f(sim::Scheduler& s) {\n"
      "  s.scheduleAfter(\n"
      "      sim::Time::seconds(1),\n"
      "      [] { /* handler */ },\n"
      "      prof::Category::kFault);\n"
      "}\n");
  EXPECT_FALSE(hasRule(fs, "sched-category"));
}

TEST(ManetLintTest, SchedCategoryIgnoresDeclarationsAndOtherIdentifiers) {
  // The declaration in scheduler.h-style code mentions std::function.
  EXPECT_FALSE(hasRule(
      lintSource("src/net/x.h",
                 "EventId scheduleAt(Time at, std::function<void()> fn,\n"
                 "                   prof::Category cat);\n"),
      "sched-category"));
  EXPECT_FALSE(hasRule(
      lintSource("src/mac/x.cc", "void g() { scheduleAttempt(); }\n"),
      "sched-category"));
}

TEST(ManetLintTest, SchedCategoryNotEnforcedOutsideLibraryCode) {
  const auto fs = lintSource(
      "tests/foo_test.cc",
      "void f(sim::Scheduler& s) {\n"
      "  s.scheduleAt(sim::Time::seconds(1), [] {});\n"
      "}\n");
  EXPECT_FALSE(hasRule(fs, "sched-category"));
}

// --------------------------------------------------------------- float-time

TEST(ManetLintTest, FloatTimeFlagsToSecondsInSimCore) {
  EXPECT_TRUE(hasRule(
      lintSource("src/mac/x.cc",
                 "double f(sim::Time t) { return t.toSeconds(); }\n"),
      "float-time"));
  EXPECT_TRUE(hasRule(
      lintSource("src/phy/x.cc",
                 "auto t = sim::Time::fromSeconds(0.5);\n"),
      "float-time"));
}

TEST(ManetLintTest, FloatTimeFreeInReportingLayers) {
  EXPECT_TRUE(
      lintSource("src/metrics/x.cc",
                 "double f(sim::Time t) { return t.toSeconds(); }\n")
          .empty());
}

TEST(ManetLintTest, FloatTimeMultiLineJustificationStillSuppresses) {
  const auto fs = lintSource(
      "src/transport/x.cc",
      "double f(sim::Time t) {\n"
      "  // manet-lint: allow(float-time): RTT estimator is defined over\n"
      "  // real seconds; fixed-op math, bit-stable per seed.\n"
      "  return t.toSeconds();\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

// --------------------------------------------------------- iostream-include

TEST(ManetLintTest, IostreamFlaggedInSrcOnly) {
  EXPECT_TRUE(hasRule(lintSource("src/util/x.cc", "#include <iostream>\n"),
                      "iostream-include"));
  EXPECT_TRUE(lintSource("examples/x.cpp", "#include <iostream>\n").empty());
  EXPECT_TRUE(lintSource("tests/x.cc", "#include <iostream>\n").empty());
}

// ----------------------------------------------------------- shared-mutable

TEST(ManetLintTest, SharedMutableFlagsStaticLocal) {
  const auto fs = lintSource(
      "src/core/x.cc", "int next() { static int counter = 0; return ++counter; }\n");
  ASSERT_TRUE(hasRule(fs, "shared-mutable"));
  EXPECT_EQ(lineOf(fs, "shared-mutable"), 1);
}

TEST(ManetLintTest, SharedMutableFlagsThreadLocalAndGlobals) {
  EXPECT_TRUE(hasRule(
      lintSource("src/net/x.cc", "thread_local int t_count = 0;\n"),
      "shared-mutable"));
  EXPECT_TRUE(hasRule(
      lintSource("src/sim/x.cc", "std::atomic<int> g_flag{0};\n"),
      "shared-mutable"));
  // A g_ global needs no `static` inside an anonymous namespace.
  EXPECT_TRUE(hasRule(
      lintSource("src/util/x.cc",
                 "namespace {\nstd::atomic<bool> g_flag{false};\n}\n"),
      "shared-mutable"));
}

TEST(ManetLintTest, SharedMutableIgnoresConstAndFunctions) {
  EXPECT_TRUE(lintSource("src/core/x.cc",
                         "static const int kLimit = 8;\n"
                         "static constexpr double kPi = 3.14;\n")
                  .empty());
  EXPECT_TRUE(lintSource("src/core/x.cc",
                         "static int helper(int a) { return a + 1; }\n")
                  .empty());
  EXPECT_TRUE(lintSource("src/core/x.cc",
                         "struct Packet {\n"
                         "  static void resetUidCounter();\n"
                         "};\n")
                  .empty());
}

TEST(ManetLintTest, SharedMutableSuppressible) {
  const auto fs = lintSource(
      "src/util/x.cc",
      "#include <mutex>\n"
      "// manet-lint: allow(shared-mutable): stderr\n"
      "// serialization only, an external resource with no members\n"
      "static std::mutex g_mutex;\n");
  EXPECT_TRUE(fs.empty());
}

TEST(ManetLintTest, SharedMutableOutOfScopeOutsideSrc) {
  EXPECT_TRUE(
      lintSource("bench/x.cc", "static int g_progress = 0;\n").empty());
  EXPECT_TRUE(
      lintSource("tests/x_test.cc", "static int g_calls = 0;\n").empty());
}

// ---------------------------------------------------------------- causal-id

TEST(ManetLintTest, CausalIdFlagsUnlinkedPacketMake) {
  const auto fs = lintSource("src/core/x.cc",
                             "void f() {\n"
                             "  auto p = net::Packet::make();\n"
                             "  p->kind = net::PacketKind::kRouteError;\n"
                             "}\n");
  ASSERT_TRUE(hasRule(fs, "causal-id"));
  EXPECT_EQ(lineOf(fs, "causal-id"), 2);
}

TEST(ManetLintTest, CausalIdAcceptsNearbyCauseAssignment) {
  const auto fs = lintSource(
      "src/aodv/x.cc",
      "void f(const net::PacketPtr& req) {\n"
      "  auto p = net::Packet::make();\n"
      "  p->kind = net::PacketKind::kRouteReply;\n"
      "  p->causeUid = req->uid;\n"
      "}\n");
  EXPECT_FALSE(hasRule(fs, "causal-id"));
}

TEST(ManetLintTest, CausalIdRootOriginationSuppressible) {
  const auto fs = lintSource(
      "src/transport/x.cc",
      "void f() {\n"
      "  // manet-lint: allow(causal-id): new application data has no cause\n"
      "  auto p = net::Packet::make();\n"
      "}\n");
  EXPECT_FALSE(hasRule(fs, "causal-id"));
}

TEST(ManetLintTest, CausalIdExemptsFactoryAndNonProtocolCode) {
  // The factory definition itself (src/net/packet.cc) is out of scope.
  EXPECT_FALSE(hasRule(
      lintSource("src/net/packet.cc",
                 "std::shared_ptr<Packet> Packet::make() { return {}; }\n"),
      "causal-id"));
  // Tests and reporting layers may build packets freely.
  EXPECT_FALSE(hasRule(
      lintSource("tests/x_test.cc", "auto p = net::Packet::make();\n"),
      "causal-id"));
  EXPECT_FALSE(hasRule(
      lintSource("src/telemetry/x.cc", "auto p = net::Packet::make();\n"),
      "causal-id"));
}

// ------------------------------------------------------------ allow syntax

TEST(ManetLintTest, BareAllowIsItselfAFindingAndDoesNotSuppress) {
  const auto fs = lintSource("src/core/x.cc",
                             "// manet-lint: allow(raw-rng)\n"
                             "int f() { return rand(); }\n");
  EXPECT_TRUE(hasRule(fs, "bare-allow"));
  EXPECT_TRUE(hasRule(fs, "raw-rng"));
}

TEST(ManetLintTest, UnknownRuleInAllowIsFlagged) {
  // A typo, and a rule the linter no longer has.
  for (const char* id : {"raw-rgn", "lock-discipline"}) {
    const auto fs = lintSource(
        "src/core/x.cc",
        "// manet-lint: allow(" + std::string(id) + "): stale\nint x;\n");
    EXPECT_TRUE(hasRule(fs, "unknown-rule")) << id;
  }
}

TEST(ManetLintTest, AllowListsMultipleRules) {
  const auto fs = lintSource(
      "src/core/x.cc",
      "// manet-lint: allow(raw-rng, float-time): doc example of both\n"
      "double f(sim::Time t) { return rand() * t.toSeconds(); }\n");
  EXPECT_TRUE(fs.empty());
}

// ------------------------------------------------------------------- lexer

TEST(ManetLintTest, CommentsAndStringsAreNotMatched) {
  EXPECT_TRUE(lintSource("src/core/x.cc",
                         "// rand() and steady_clock are banned here\n"
                         "/* for (auto& e : someUnorderedMap) */\n"
                         "const char* s = \"rand() steady_clock\";\n")
                  .empty());
}

// ------------------------------------------------------------------- SARIF

TEST(ManetLintTest, SarifReportHasGithubConsumableShape) {
  const std::vector<Finding> findings = {
      {"src/core/x.cc", 12, "raw-rng", "process-global RNG"},
      {"src/util/y.cc", 3, "shared-mutable", "mutable 'static' object"},
  };
  std::string err;
  const auto doc = util::parseJson(sarifReport(findings), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->stringAt("version"), "2.1.0");
  ASSERT_NE(doc->find("runs"), nullptr);
  const auto& run = doc->find("runs")->asArray().at(0);
  const auto* driver = run.find("tool")->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->stringAt("name"), "manet_lint");

  // Full rule catalog with stable ids in catalog order.
  const auto& ruleArr = driver->find("rules")->asArray();
  ASSERT_EQ(ruleArr.size(), rules().size());
  for (std::size_t i = 0; i < ruleArr.size(); ++i) {
    EXPECT_EQ(ruleArr[i].stringAt("id"), rules()[i].id);
    EXPECT_FALSE(
        ruleArr[i].find("shortDescription")->stringAt("text").empty());
    EXPECT_EQ(ruleArr[i].find("defaultConfiguration")->stringAt("level"),
              "error");
  }

  // One result per finding, ruleIndex pointing back into the catalog.
  const auto& results = run.find("results")->asArray();
  ASSERT_EQ(results.size(), findings.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].stringAt("ruleId"), findings[i].rule);
    const auto idx =
        static_cast<std::size_t>(results[i].numberAt("ruleIndex", -1));
    ASSERT_LT(idx, rules().size());
    EXPECT_EQ(rules()[idx].id, findings[i].rule);
    const auto& loc = results[i].find("locations")->asArray().at(0);
    const auto* phys = loc.find("physicalLocation");
    ASSERT_NE(phys, nullptr);
    EXPECT_EQ(phys->find("artifactLocation")->stringAt("uri"),
              findings[i].file);
    EXPECT_EQ(phys->find("artifactLocation")->stringAt("uriBaseId"),
              "%SRCROOT%");
    EXPECT_EQ(phys->find("region")->numberAt("startLine"), findings[i].line);
  }
}

TEST(ManetLintTest, SarifEscapesMessageContent) {
  const std::vector<Finding> findings = {
      {"src/core/x.cc", 1, "raw-rng", "a \"quoted\"\nmessage\twith\\stuff"}};
  std::string err;
  const auto doc = util::parseJson(sarifReport(findings), &err);
  ASSERT_TRUE(doc.has_value()) << err;
}

TEST(ManetLintTest, SarifEmptyFindingsStillValidates) {
  std::string err;
  const auto doc = util::parseJson(sarifReport({}), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto& run = doc->find("runs")->asArray().at(0);
  EXPECT_TRUE(run.find("results")->asArray().empty());
}

// ----------------------------------------------------------- allow budgets

TEST(ManetLintTest, BudgetRoundTripsThroughFormatAndParse) {
  std::map<std::string, std::size_t> counts;
  counts["raw-rng"] = 2;
  counts["causal-id"] = 1;
  std::vector<std::string> errors;
  const auto parsed = parseBudget(formatBudget(counts), &errors);
  EXPECT_TRUE(errors.empty());
  // formatBudget writes the full catalog; absent rules round-trip as zero.
  ASSERT_EQ(parsed.size(), rules().size());
  EXPECT_EQ(parsed.at("raw-rng"), 2u);
  EXPECT_EQ(parsed.at("causal-id"), 1u);
  EXPECT_EQ(parsed.at("wall-clock"), 0u);
}

TEST(ManetLintTest, BudgetParserRejectsGarbage) {
  std::vector<std::string> errors;
  parseBudget("raw-rng two\nnot-a-rule 3\nraw-rng 1 extra\n", &errors);
  EXPECT_EQ(errors.size(), 3u);
}

TEST(ManetLintTest, CheckBudgetPassesAtBaselineFailsOnGrowth) {
  std::map<std::string, std::size_t> counts;
  counts["raw-rng"] = 3;
  std::map<std::string, std::size_t> budget;
  budget["raw-rng"] = 3;

  // Exactly at baseline: pass.
  std::string report;
  EXPECT_EQ(checkBudget(counts, budget, &report), 0);
  EXPECT_NE(report.find("allow budget OK"), std::string::npos);

  // One new allow: fail, naming the rule.
  counts["raw-rng"] = 4;
  report.clear();
  EXPECT_EQ(checkBudget(counts, budget, &report), 1);
  EXPECT_NE(report.find("over budget: raw-rng"), std::string::npos);

  // Baseline bump restores the pass.
  budget["raw-rng"] = 4;
  report.clear();
  EXPECT_EQ(checkBudget(counts, budget, &report), 0);

  // Slack is reported but does not fail.
  counts["raw-rng"] = 2;
  report.clear();
  EXPECT_EQ(checkBudget(counts, budget, &report), 0);
  EXPECT_NE(report.find("slack: raw-rng"), std::string::npos);
}

TEST(ManetLintTest, CheckBudgetTreatsMissingEntriesAsZero) {
  std::map<std::string, std::size_t> counts;
  counts["causal-id"] = 1;
  EXPECT_EQ(checkBudget(counts, {}, nullptr), 1);
  EXPECT_EQ(checkBudget({}, {}, nullptr), 0);
}

// ------------------------------------------------------- path normalization

TEST(ManetLintTest, LintTreeReportsRepoRelativePathsFromAnyRootSpelling) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "manet_lint_path_norm_test";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "core");
  {
    std::ofstream out(root / "src" / "core" / "bad.cc");
    out << "int f() { return rand(); }\n";
  }
  // A dot-segmented spelling of the same root must yield identical,
  // repo-relative findings (this is what CI's SARIF upload consumes).
  const std::string dotted = (root / "." / "src" / "..").string();
  const auto direct = lintTree(root.string());
  const auto viaDots = lintTree(dotted);
  fs::remove_all(root);
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(direct[0].file, "src/core/bad.cc");
  ASSERT_EQ(viaDots.size(), 1u);
  EXPECT_EQ(viaDots[0].file, "src/core/bad.cc");
}

// ---------------------------------------------------------- the real tree

TEST(ManetLintTest, SourceTreeIsCleanAndWithinItsAllowBudget) {
  const std::string root = MANET_SOURCE_DIR;
  std::vector<std::string> scanned;
  for (const Finding& f : lintTree(root, &scanned)) {
    ADD_FAILURE() << formatFinding(f);
  }
  EXPECT_FALSE(scanned.empty());

  std::ifstream in(root + "/tools/manet_lint/allow_budget.txt");
  ASSERT_TRUE(in);
  std::ostringstream baseline;
  baseline << in.rdbuf();
  std::vector<std::string> errors;
  const auto budget = parseBudget(baseline.str(), &errors);
  for (const std::string& e : errors) ADD_FAILURE() << e;
  std::string report;
  EXPECT_EQ(checkBudget(countAllows(root), budget, &report), 0) << report;
}

// ------------------------------------------------------------------- misc

TEST(ManetLintTest, FormatFindingIsGrepable) {
  const Finding f{"src/core/x.cc", 12, "raw-rng", "msg"};
  EXPECT_EQ(formatFinding(f), "src/core/x.cc:12: [raw-rng] msg");
}

TEST(ManetLintTest, EveryRuleHasARationale) {
  for (const RuleInfo& r : rules()) {
    ASSERT_NE(r.summary, nullptr) << r.id;
    EXPECT_NE(*r.summary, '\0') << r.id;
    EXPECT_FALSE(ruleRationale(r.id).empty()) << r.id;
  }
}

TEST(ManetLintTest, EveryRuleHasAnActionableFixHint) {
  for (const RuleInfo& r : rules()) {
    EXPECT_FALSE(ruleHint(r.id).empty()) << r.id;
  }
  EXPECT_TRUE(ruleHint("no-such-rule").empty());
}

}  // namespace
}  // namespace manet::lint
