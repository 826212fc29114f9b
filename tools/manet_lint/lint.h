// manet_lint: repo-specific determinism linter.
//
// The simulator's headline property — same seed, bit-identical run — is a
// whole-repo invariant: one rand() call, one wall-clock read, or one
// hash-ordered loop feeding packet emission breaks it silently. This linter
// turns those invariants into build errors. It works on tokens plus
// lightweight lexing (comments, string and char literals are stripped before
// matching), not a full C++ parse; rules are scoped to the directories where
// a violation is actually simulation-visible.
//
// Suppression syntax (checked: a justification is mandatory):
//   // manet-lint: allow(<rule>): <why this use cannot perturb the sim>
// The comment suppresses findings of <rule> on its own line and the next
// line, so it can sit above (or trail) the offending statement; a
// justification continued over several pure-comment lines still reaches the
// code below the block.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace manet::lint {

struct Finding {
  std::string file;  // repo-relative path, forward slashes
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

struct RuleInfo {
  const char* id;
  const char* summary;    // one-line description of what is flagged
  const char* rationale;  // why the rule exists
  const char* hint;       // actionable fix, printed by --fix-hints
};

/// All rules the engine knows, in stable order.
const std::vector<RuleInfo>& rules();

/// True if `id` names a known rule.
bool knownRule(const std::string& id);

/// Lint a single file. `relPath` selects which rules apply (scoping is by
/// directory); `headerContent` is the paired header of a .cc file, used only
/// to pick up member declarations (e.g. an unordered_map declared in the .h
/// and iterated in the .cc).
std::vector<Finding> lintSource(const std::string& relPath,
                                const std::string& content,
                                const std::string& headerContent = "");

/// Walk the default scan roots (src, bench, examples, tests) under `root`
/// and lint every C++ file, pairing each .cc/.cpp with its sibling header.
/// Results are sorted by path then line, so output is deterministic.
/// Returns findings; files actually read are appended to `scannedFiles`
/// when non-null.
std::vector<Finding> lintTree(const std::string& root,
                              std::vector<std::string>* scannedFiles = nullptr);

/// One finding rendered as "path:line: [rule] message".
std::string formatFinding(const Finding& f);

/// Rationale text for a rule id (empty if unknown).
std::string ruleRationale(const std::string& id);

/// Actionable fix text for a rule id (empty if unknown).
std::string ruleHint(const std::string& id);

/// Findings rendered as a SARIF 2.1.0 log (the shape GitHub code scanning
/// consumes): one run, the full rule catalog in tool.driver.rules (stable
/// ids and indices), one result per finding with a repo-relative
/// artifactLocation uri under %SRCROOT% and a 1-based startLine region.
std::string sarifReport(const std::vector<Finding>& findings);

// -------------------------------------------------------- allow budgets
//
// Inline allow() comments are audited suppressions; the committed baseline
// (tools/manet_lint/allow_budget.txt) caps how many each rule may carry.
// --check-budget fails when suppressions grow past the baseline, so a new
// allow needs either a fix or an explicit, reviewable baseline bump.

/// Count justified `manet-lint: allow(<rule>)` markers per rule across the
/// scan roots. A marker naming several rules counts once per rule named.
std::map<std::string, std::size_t> countAllows(const std::string& root);

/// Parse a budget file ("<rule> <count>" lines, '#' comments). Unknown rule
/// ids and malformed lines are reported through `errors` when non-null.
std::map<std::string, std::size_t> parseBudget(
    const std::string& content, std::vector<std::string>* errors = nullptr);

/// Budget file content for the given counts (stable rule-catalog order,
/// zero-count rules included so additions always diff against a line).
std::string formatBudget(const std::map<std::string, std::size_t>& counts);

/// Compare actual counts against the baseline. Returns 0 when no rule
/// exceeds its budget; appends human-readable verdict lines to `report`.
/// Slack (actual < budget) is reported but does not fail.
int checkBudget(const std::map<std::string, std::size_t>& counts,
                const std::map<std::string, std::size_t>& budget,
                std::string* report);

}  // namespace manet::lint
