// manet_lint CLI: determinism lint over the repo tree.
//
//   manet_lint [--root DIR]         lint src/ bench/ examples/ tests/
//   manet_lint --sarif FILE         also write findings as SARIF 2.1.0
//   manet_lint --check-budget       fail if inline allows exceed the baseline
//   manet_lint --write-budget       regenerate the allow-budget baseline
//   manet_lint --budget FILE        baseline path (default
//                                   <root>/tools/manet_lint/allow_budget.txt)
//   manet_lint --list-rules         print rule ids and summaries
//   manet_lint --fix-hints          append each rule's fix hint + rationale
//
// Exit codes: 0 clean, 1 findings (or budget failure), 2 usage error.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/manet_lint/lint.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: manet_lint [--root DIR] [--fix-hints] [--sarif FILE]\n"
      "                  [--budget FILE]\n"
      "       manet_lint [--root DIR] --check-budget | --write-budget\n"
      "       manet_lint --list-rules\n");
}

bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::string readFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarifPath;
  std::string budgetPath;
  bool fixHints = false;
  bool listRules = false;
  bool checkBudget = false;
  bool writeBudget = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      sarifPath = argv[++i];
    } else if (arg == "--budget") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      budgetPath = argv[++i];
    } else if (arg == "--check-budget") {
      checkBudget = true;
    } else if (arg == "--write-budget") {
      writeBudget = true;
    } else if (arg == "--fix-hints") {
      fixHints = true;
    } else if (arg == "--list-rules") {
      listRules = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "manet_lint: unknown argument '%s'\n",
                   arg.c_str());
      usage();
      return 2;
    }
  }

  if (listRules) {
    for (const auto& r : manet::lint::rules()) {
      std::printf("%-19s %s\n", r.id, r.summary);
      if (fixHints) {
        std::printf("%19s fix: %s\n", "", r.hint);
        std::printf("%19s why: %s\n", "", r.rationale);
      }
    }
    return 0;
  }

  if (!std::filesystem::exists(std::filesystem::path(root) / "src")) {
    std::fprintf(stderr,
                 "manet_lint: '%s' does not look like the repo root (no "
                 "src/); pass --root\n",
                 root.c_str());
    return 2;
  }
  if (budgetPath.empty()) {
    budgetPath = (std::filesystem::path(root) / "tools" / "manet_lint" /
                  "allow_budget.txt")
                     .generic_string();
  }

  if (writeBudget) {
    const auto counts = manet::lint::countAllows(root);
    if (!writeFile(budgetPath, manet::lint::formatBudget(counts))) {
      std::fprintf(stderr, "manet_lint: cannot write budget file '%s'\n",
                   budgetPath.c_str());
      return 2;
    }
    std::fprintf(stderr, "manet_lint: wrote allow budget to %s\n",
                 budgetPath.c_str());
    return 0;
  }

  if (checkBudget) {
    bool ok = false;
    const std::string baseline = readFile(budgetPath, &ok);
    if (!ok) {
      std::fprintf(stderr,
                   "manet_lint: cannot read budget file '%s'; generate it "
                   "with --write-budget\n",
                   budgetPath.c_str());
      return 2;
    }
    std::vector<std::string> errors;
    const auto budget = manet::lint::parseBudget(baseline, &errors);
    for (const std::string& e : errors) {
      std::fprintf(stderr, "manet_lint: %s\n", e.c_str());
    }
    if (!errors.empty()) return 2;
    const auto counts = manet::lint::countAllows(root);
    std::string report;
    const int rc = manet::lint::checkBudget(counts, budget, &report);
    std::fputs(report.c_str(), stderr);
    return rc;
  }

  std::vector<std::string> scanned;
  const std::vector<manet::lint::Finding> findings =
      manet::lint::lintTree(root, &scanned);
  for (const auto& f : findings) {
    std::printf("%s\n", manet::lint::formatFinding(f).c_str());
    if (fixHints) {
      std::printf("    fix: %s\n", manet::lint::ruleHint(f.rule).c_str());
      std::printf("    why: %s\n",
                  manet::lint::ruleRationale(f.rule).c_str());
    }
  }
  if (!sarifPath.empty()) {
    if (!writeFile(sarifPath, manet::lint::sarifReport(findings))) {
      std::fprintf(stderr, "manet_lint: cannot write SARIF file '%s'\n",
                   sarifPath.c_str());
      return 2;
    }
    std::fprintf(stderr, "manet_lint: SARIF log written to %s\n",
                 sarifPath.c_str());
  }
  std::fprintf(stderr, "manet_lint: %zu file(s) scanned, %zu finding(s)\n",
               scanned.size(), findings.size());
  return findings.empty() ? 0 : 1;
}
