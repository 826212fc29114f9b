#include "tools/manet_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string_view>

#include "src/util/json.h"

namespace manet::lint {
namespace {

// ------------------------------------------------------------------ rules

const std::vector<RuleInfo> kRules = {
    {"raw-rng",
     "rand()/srand()/std::random_device outside src/sim/rng.*",
     "Every random draw must come from a named sim::Rng stream so runs are "
     "replayable from the scenario seeds alone. rand() is process-global "
     "state and std::random_device is nondeterministic by design; either one "
     "makes same-seed replay impossible.",
     "Draw from a named sim::Rng stream (Scenario owns them, seeded from the "
     "scenario config); delete the rand()/srand()/random_device call."},
    {"wall-clock",
     "wall/steady clock reads outside src/prof/ and bench/",
     "Simulated time comes only from Scheduler::now(). A wall-clock read in "
     "simulation code couples results to host speed and scheduling; profiling "
     "(src/prof/) and benchmarks (bench/) are the only layers that may time "
     "the host, and they must never feed the value back into the sim.",
     "Replace the clock read with Scheduler::now(), or move the timing into "
     "src/prof//bench/; a report-only read needs an allow stating the value "
     "never feeds back into the simulation."},
    {"unordered-iter",
     "iteration over std::unordered_{map,set} in simulation-visible code",
     "Hash-table iteration order is unspecified and differs across standard "
     "libraries; if it reaches scheduling, RNG draws, or packet emission "
     "order, replay is only accidentally reproducible. Point lookups are "
     "fine; loops must use std::map / sorted vectors, or be allowlisted with "
     "a proof that order cannot escape.",
     "Change the container to std::map / a sorted vector, or collect keys "
     "and sort before iterating; an allow needs a proof that iteration "
     "order cannot reach scheduling, RNG draws, or packet emission."},
    {"sched-category",
     "Scheduler::scheduleAt/scheduleAfter call without a prof::Category tag",
     "The profiler attributes wall time per event category; an untagged call "
     "site lands in kOther and hides its cost. Library code must state the "
     "category explicitly at every schedule call.",
     "Append the event's prof::Category (kPhy/kMac/kRouting/...) as the "
     "last argument of the scheduleAt/scheduleAfter call."},
    {"float-time",
     "sim::Time <-> floating point round-trips in simulation-core code",
     "sim::Time is integer nanoseconds precisely so event ordering has no "
     "floating-point drift. toSeconds()/fromSeconds() in core simulation "
     "logic reintroduce rounding; keep float math in reporting layers, or "
     "allowlist fixed-operation uses that are bit-stable per IEEE-754.",
     "Do the arithmetic in integer nanoseconds (sim::Time ops), or move the "
     "conversion into a reporting layer; a fixed-op use that is bit-stable "
     "per IEEE-754 may carry an allow saying so."},
    {"iostream-include",
     "#include <iostream> in library code (src/)",
     "iostream drags in global constructors and encourages ad-hoc stdout "
     "writes from library code; emit a typed trace record or return data "
     "to the caller. Binaries under bench/, examples/, tests/ may print "
     "freely.",
     "Drop the include; emit a trace record (src/telemetry/trace.h) or "
     "return the data to the caller and let a binary print it."},
    {"shared-mutable",
     "non-const global/static-local state in src/ outside allowlisted sinks",
     "A mutable global or function-local static is shared by every Scenario "
     "in the process — and, under the parallel sweep runner, by every worker "
     "thread — so it either data-races or couples runs together and breaks "
     "bit-identical replay. Keep state per-Scenario; a true process-wide "
     "sink (stderr or mkdir mutex) or a thread_local with a per-run reset "
     "must carry an allow comment stating why it cannot perturb results.",
     "Move the state onto the Scenario (or the object that owns the run); a "
     "deliberate process-wide sink keeps the global but adds an allow with "
     "its safety argument: why it cannot perturb results."},
    {"causal-id",
     "Packet::make() without a causeUid link in protocol code",
     "The causal trace layer reconstructs why every packet exists from "
     "causeUid links (reply <- request, error <- failed packet, ack <- "
     "segment). A protocol-layer Packet::make() that never assigns causeUid "
     "silently breaks those chains. Set `p->causeUid = <trigger>->uid` in "
     "the construction block, or allowlist a true root origination (new "
     "application data) with the reason.",
     "Assign `p->causeUid = <triggering packet>->uid` inside the "
     "construction block; a true root origination (new application data) "
     "carries an allow naming it as such."},
    {"bare-allow",
     "manet-lint allow() comment without a justification",
     "Every suppression must record why the flagged construct cannot perturb "
     "the simulation: '// manet-lint: allow(<rule>): <reason>'.",
     "Append the justification: '// manet-lint: allow(<rule>): <why this "
     "cannot perturb the simulation>'."},
    {"unknown-rule",
     "manet-lint allow() naming a rule the linter does not know",
     "A typo in the rule id would silently suppress nothing; name one of the "
     "ids listed by --list-rules.",
     "Fix the rule id to one listed by --list-rules (or delete the stale "
     "allow if the rule no longer exists)."},
};

// Directories (repo-relative prefixes) where hash-order iteration or
// float/time round-trips are simulation-visible: anything that schedules
// events, emits packets, or mutates protocol state. Reporting-only layers
// (telemetry, metrics, prof, util, scenario export) are exempt.
const char* kSimCoreDirs[] = {"src/core/", "src/mac/",       "src/net/",
                              "src/sim/",  "src/aodv/",      "src/transport/",
                              "src/phy/",  "src/traffic/",   "src/mobility/",
                              "src/fault/"};

bool startsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool inSimCore(const std::string& path) {
  return std::any_of(std::begin(kSimCoreDirs), std::end(kSimCoreDirs),
                     [&](const char* d) { return startsWith(path, d); });
}

// ------------------------------------------------------------------ lexer

struct Lexed {
  /// Input with comment bodies and string/char-literal contents replaced by
  /// spaces; same length and newlines, so line/column arithmetic matches.
  std::string code;
  /// Per-character class: 'n' code, 'c' comment, 's' string/char literal.
  std::string mask;
};

Lexed stripCommentsAndLiterals(const std::string& in) {
  Lexed lx{in, std::string(in.size(), 'n')};
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '\n') lx.mask[i] = '\n';  // keep line structure in the mask
  }
  const auto blank = [&](std::size_t i, char kind) {
    if (in[i] == '\n') return;  // never overwrite line breaks
    lx.code[i] = ' ';
    lx.mask[i] = kind;
  };
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string rawDelim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          blank(i, 'c');
          blank(i + 1, 'c');
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          blank(i, 'c');
          blank(i + 1, 'c');
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   in[i - 1])) &&
                               in[i - 1] != '_'))) {
          st = St::kRaw;
          rawDelim.clear();
          std::size_t j = i + 2;
          while (j < in.size() && in[j] != '(') rawDelim += in[j++];
          rawDelim = ")" + rawDelim + "\"";
          for (std::size_t k = i; k <= j && k < in.size(); ++k) blank(k, 's');
          i = j;
        } else if (c == '"') {
          st = St::kStr;
          lx.mask[i] = 's';  // keep the quote visible in code
        } else if (c == '\'') {
          st = St::kChar;
          lx.mask[i] = 's';
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          blank(i, 'c');
        }
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kCode;
          blank(i, 'c');
          blank(i + 1, 'c');
          ++i;
        } else {
          blank(i, 'c');
        }
        break;
      case St::kStr:
        if (c == '\\') {
          blank(i, 's');
          if (next != '\n' && i + 1 < in.size()) {
            blank(i + 1, 's');
            ++i;
          }
        } else if (c == '"') {
          st = St::kCode;
          lx.mask[i] = 's';
        } else {
          blank(i, 's');
        }
        break;
      case St::kChar:
        if (c == '\\') {
          blank(i, 's');
          if (i + 1 < in.size() && next != '\n') {
            blank(i + 1, 's');
            ++i;
          }
        } else if (c == '\'') {
          st = St::kCode;
          lx.mask[i] = 's';
        } else {
          blank(i, 's');
        }
        break;
      case St::kRaw:
        if (in.compare(i, rawDelim.size(), rawDelim) == 0) {
          for (std::size_t k = 0; k < rawDelim.size(); ++k) {
            blank(i + k, 's');
          }
          i += rawDelim.size() - 1;
          st = St::kCode;
        } else {
          blank(i, 's');
        }
        break;
    }
  }
  return lx;
}

std::vector<std::string> splitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(std::move(cur));
  return lines;
}

// ------------------------------------------------------------- allowlist

struct Allow {
  std::set<std::string> ruleIds;
  bool hasJustification = false;
};

/// Parse "// manet-lint: allow(a, b): reason" comments from the raw lines.
/// Keyed by 1-based line number. Only markers whose text sits inside an
/// actual comment count — the same byte sequence inside a string literal
/// (e.g. in the linter's own tests) is data, not a directive; the lexer's
/// per-char mask tells the two apart.
std::map<int, Allow> parseAllows(const std::vector<std::string>& rawLines,
                                 const std::vector<std::string>& maskLines,
                                 const std::string& relPath,
                                 std::vector<Finding>* meta) {
  static const std::regex kAllowRe(
      R"(manet-lint:\s*allow\(([A-Za-z0-9_,\s-]*)\)\s*:?\s*(.*))");
  std::map<int, Allow> allows;
  for (std::size_t i = 0; i < rawLines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(rawLines[i], m, kAllowRe)) continue;
    const auto pos = static_cast<std::size_t>(m.position(0));
    if (i >= maskLines.size() || pos >= maskLines[i].size() ||
        maskLines[i][pos] != 'c') {
      continue;
    }
    Allow a;
    std::stringstream ids(m[1].str());
    std::string id;
    while (std::getline(ids, id, ',')) {
      id.erase(std::remove_if(id.begin(), id.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               id.end());
      if (id.empty()) continue;
      if (!knownRule(id)) {
        meta->push_back({relPath, static_cast<int>(i + 1), "unknown-rule",
                         "allow() names unknown rule '" + id + "'"});
        continue;
      }
      a.ruleIds.insert(id);
    }
    std::string why = m[2].str();
    a.hasJustification =
        why.find_first_not_of(" \t:") != std::string::npos;
    if (!a.hasJustification) {
      meta->push_back({relPath, static_cast<int>(i + 1), "bare-allow",
                       "allow() comment needs a justification: "
                       "'// manet-lint: allow(<rule>): <reason>'"});
    }
    allows[static_cast<int>(i + 1)] = std::move(a);
  }
  return allows;
}

/// An allow comment on a pure-comment line covers the next line too, so a
/// multi-line justification block still reaches the code under it: walk the
/// lines and let a justified allow ride down while the line carrying it has
/// no code of its own.
void propagateAllows(const std::vector<std::string>& codeLines,
                     std::map<int, Allow>* allows) {
  for (std::size_t i = 0; i < codeLines.size(); ++i) {
    const int line = static_cast<int>(i + 1);
    auto it = allows->find(line);
    if (it == allows->end() || !it->second.hasJustification) continue;
    const bool pureComment =
        codeLines[i].find_first_not_of(" \t") == std::string::npos;
    if (!pureComment) continue;
    Allow& next = (*allows)[line + 1];
    if (next.ruleIds.empty()) next.hasJustification = true;
    next.ruleIds.insert(it->second.ruleIds.begin(),
                        it->second.ruleIds.end());
  }
}

bool isAllowed(const std::map<int, Allow>& allows, int line,
               const std::string& rule) {
  for (int l : {line, line - 1}) {
    auto it = allows.find(l);
    if (it != allows.end() && it->second.hasJustification &&
        it->second.ruleIds.count(rule)) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------ per-rule matching

struct LineRule {
  const char* id;
  std::regex re;
  const char* message;
};

void applyLineRules(const std::vector<LineRule>& lineRules,
                    const std::vector<std::string>& codeLines,
                    const std::map<int, Allow>& allows,
                    const std::string& relPath, std::vector<Finding>* out) {
  for (std::size_t i = 0; i < codeLines.size(); ++i) {
    const int line = static_cast<int>(i + 1);
    for (const LineRule& r : lineRules) {
      if (!std::regex_search(codeLines[i], r.re)) continue;
      if (isAllowed(allows, line, r.id)) continue;
      out->push_back({relPath, line, r.id, r.message});
    }
  }
}

/// Collect names declared as std::unordered_{map,set,multimap,multiset}
/// anywhere in the (comment-stripped) text: skip the balanced <...> template
/// argument list, then take the next identifier.
std::set<std::string> unorderedNames(const std::string& code) {
  std::set<std::string> names;
  static const char* kContainers[] = {"unordered_map", "unordered_set",
                                      "unordered_multimap",
                                      "unordered_multiset"};
  for (const char* cont : kContainers) {
    const std::string tok = cont;
    std::size_t pos = 0;
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      std::size_t j = pos + tok.size();
      pos = j;
      // Must be followed (after whitespace) by the template argument list.
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j]))) {
        ++j;
      }
      if (j >= code.size() || code[j] != '<') continue;
      int depth = 0;
      while (j < code.size()) {
        if (code[j] == '<') ++depth;
        if (code[j] == '>') {
          --depth;
          if (depth == 0) {
            ++j;
            break;
          }
        }
        ++j;
      }
      // Skip whitespace and reference/pointer decoration before the name.
      while (j < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[j])) ||
              code[j] == '&' || code[j] == '*')) {
        ++j;
      }
      std::string name;
      while (j < code.size() &&
             (std::isalnum(static_cast<unsigned char>(code[j])) ||
              code[j] == '_')) {
        name += code[j++];
      }
      if (!name.empty() && name != "const") names.insert(name);
    }
  }
  return names;
}

void checkUnorderedIteration(const std::string& code,
                             const std::string& headerCode,
                             const std::vector<std::string>& codeLines,
                             const std::map<int, Allow>& allows,
                             const std::string& relPath,
                             std::vector<Finding>* out) {
  std::set<std::string> names = unorderedNames(code);
  const std::set<std::string> headerNames = unorderedNames(headerCode);
  names.insert(headerNames.begin(), headerNames.end());
  if (names.empty()) return;

  static const std::regex kRangedFor(R"(for\s*\([^;()]*:\s*\*?(\w+)\s*\))");
  static const std::regex kBeginCall(R"((\w+)\s*\.\s*c?begin\s*\()");
  for (std::size_t i = 0; i < codeLines.size(); ++i) {
    const int line = static_cast<int>(i + 1);
    for (const auto* re : {&kRangedFor, &kBeginCall}) {
      auto begin =
          std::sregex_iterator(codeLines[i].begin(), codeLines[i].end(), *re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (!names.count(name)) continue;
        if (isAllowed(allows, line, "unordered-iter")) continue;
        out->push_back(
            {relPath, line, "unordered-iter",
             "iteration over unordered container '" + name +
                 "' in simulation-visible code; use std::map / a sorted "
                 "vector, or allowlist with a proof order cannot escape"});
      }
    }
  }
}

void checkSchedulerCategories(const std::string& code,
                              const std::map<int, Allow>& allows,
                              const std::string& relPath,
                              std::vector<Finding>* out) {
  for (const char* tok : {"scheduleAt", "scheduleAfter"}) {
    const std::string t = tok;
    std::size_t pos = 0;
    while ((pos = code.find(t, pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += t.size();
      // Token boundaries: reject scheduleAttempt, rescheduleAt, etc.
      if (start > 0) {
        const char prev = code[start - 1];
        if (std::isalnum(static_cast<unsigned char>(prev)) || prev == '_') {
          continue;
        }
      }
      std::size_t j = pos;
      while (j < code.size() &&
             std::isspace(static_cast<unsigned char>(code[j]))) {
        ++j;
      }
      if (j >= code.size() || code[j] != '(') continue;
      // Capture the balanced call extent.
      int depth = 0;
      const std::size_t open = j;
      while (j < code.size()) {
        if (code[j] == '(') ++depth;
        if (code[j] == ')') {
          --depth;
          if (depth == 0) break;
        }
        ++j;
      }
      const std::string extent = code.substr(open, j - open + 1);
      // A declaration/definition extent mentions std::function parameters;
      // call sites pass lambdas or callables. Distinguish cheaply: a
      // declaration's extent contains "std::function<".
      if (extent.find("std::function<") != std::string::npos) continue;
      if (extent.find("prof::Category::") != std::string::npos) continue;
      const int line =
          1 + static_cast<int>(std::count(code.begin(),
                                          code.begin() +
                                              static_cast<std::ptrdiff_t>(
                                                  start),
                                          '\n'));
      if (isAllowed(allows, line, "sched-category")) continue;
      out->push_back({relPath, line, "sched-category",
                      std::string(tok) +
                          "() without an explicit prof::Category tag; name "
                          "the event's category so profiling attributes it"});
    }
  }
}

/// shared-mutable: `static` / `thread_local` declarations of mutable
/// objects, plus namespace-scope `g_*` definitions (the repo's convention
/// for process globals, which need no `static` inside an anonymous
/// namespace). Function declarations are skipped by shape: their extent
/// hits '(' before any initializer or terminator.
void checkSharedMutable(const std::string& code,
                        const std::map<int, Allow>& allows,
                        const std::string& relPath,
                        std::vector<Finding>* out) {
  const auto lineOf = [&code](std::size_t pos) {
    return 1 + static_cast<int>(std::count(
                   code.begin(),
                   code.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
  };
  const auto emit = [&](std::size_t pos, const std::string& what) {
    const int line = lineOf(pos);
    if (isAllowed(allows, line, "shared-mutable")) return;
    out->push_back({relPath, line, "shared-mutable",
                    what + "; per-run state belongs on the Scenario — a "
                           "deliberate process-wide sink needs an allow "
                           "comment with its safety argument"});
  };

  static const std::regex kKeyword(R"(\b(static|thread_local)\b)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kKeyword);
       it != std::sregex_iterator(); ++it) {
    const auto start = static_cast<std::size_t>(it->position(0));
    // Walk the declaration head: stop at the initializer ('=' or '{'), a
    // parameter list '(' (=> function, skip), or the terminator ';'
    // (uninitialized variable). Angle brackets nest template arguments.
    std::size_t j = start + it->length(0);
    int angle = 0;
    char stop = '\0';
    while (j < code.size()) {
      const char c = code[j];
      if (c == '<') ++angle;
      if (c == '>' && angle > 0) --angle;
      if (angle == 0 && (c == '=' || c == '{' || c == '(' || c == ';')) {
        stop = c;
        break;
      }
      ++j;
    }
    if (stop == '\0' || stop == '(') continue;  // function decl/definition
    const std::string head = code.substr(start, j - start);
    static const std::regex kConst(R"(\b(const|constexpr|constinit)\b)");
    if (std::regex_search(head, kConst)) continue;
    emit(start, "mutable '" + it->str(1) + "' object");
  }

  // Namespace-scope globals by naming convention: `Type g_name = ...;` has
  // no `static` keyword inside an anonymous namespace.
  static const std::regex kGlobal(R"(\bg_\w+\s*(\{|=[^=]|;))");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kGlobal);
       it != std::sregex_iterator(); ++it) {
    const auto start = static_cast<std::size_t>(it->position(0));
    // Skip if this g_ token sits inside a `static`/`thread_local` head the
    // pass above already judged (flagged or const-cleared).
    const std::size_t lineStart = code.rfind('\n', start) + 1;
    const std::string prefix = code.substr(lineStart, start - lineStart);
    static const std::regex kHandled(
        R"(\b(static|thread_local|const|constexpr|constinit)\b)");
    if (std::regex_search(prefix, kHandled)) continue;
    // Declarations start the statement with a type name; assignments to an
    // already-flagged global start with the g_ token itself. Require the
    // prefix to look like `Type ` — template/identifier characters only,
    // with at least one identifier character present.
    const bool typeShaped =
        prefix.find_first_not_of(
            " \t:<>,&*ABCDEFGHIJKLMNOPQRSTUVWXYZ"
            "abcdefghijklmnopqrstuvwxyz0123456789_") == std::string::npos &&
        std::any_of(prefix.begin(), prefix.end(), [](unsigned char c) {
          return std::isalnum(c) != 0;
        });
    if (!typeShaped) continue;
    emit(start, "namespace-scope mutable global '" +
                    it->str(0).substr(0, it->str(0).find_first_of(
                                             " \t{=;")) +
                    "'");
  }
}

/// causal-id: every Packet::make() in protocol code must wire the new
/// packet into a causal chain by assigning `causeUid` somewhere in its
/// construction block. The check is textual on purpose: a `causeUid`
/// mention within the next few lines of the (comment-stripped) code is
/// taken as the link. Root originations — packets with no cause, like new
/// application data — carry an allow comment instead. Clones are exempt by
/// construction (net::clone preserves uid and causeUid).
void checkCausalIds(const std::string& code,
                    const std::vector<std::string>& codeLines,
                    const std::map<int, Allow>& allows,
                    const std::string& relPath, std::vector<Finding>* out) {
  /// Lines after Packet::make() searched for the causeUid assignment — the
  /// repo's construction blocks (kind/src/dst/headers) all fit well inside.
  constexpr std::size_t kWindow = 15;
  static const std::regex kMake(R"(\bPacket::make\s*\()");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kMake);
       it != std::sregex_iterator(); ++it) {
    const auto start = static_cast<std::size_t>(it->position(0));
    const int line = 1 + static_cast<int>(std::count(
                             code.begin(),
                             code.begin() + static_cast<std::ptrdiff_t>(start),
                             '\n'));
    // The factory's own definition ends in '{', not a call expression.
    const std::size_t lineStart = code.rfind('\n', start) + 1;
    const std::string before = code.substr(lineStart, start - lineStart);
    if (before.find("shared_ptr") != std::string::npos) continue;
    bool linked = false;
    for (std::size_t l = static_cast<std::size_t>(line);
         l <= static_cast<std::size_t>(line) + kWindow &&
         l <= codeLines.size();
         ++l) {
      if (codeLines[l - 1].find("causeUid") != std::string::npos) {
        linked = true;
        break;
      }
    }
    if (linked) continue;
    if (isAllowed(allows, line, "causal-id")) continue;
    out->push_back(
        {relPath, line, "causal-id",
         "Packet::make() with no causeUid assignment nearby; link the "
         "packet to its trigger (p->causeUid = trigger->uid) or allowlist "
         "a root origination"});
  }
}

// ------------------------------------------------------------- tree walk

/// Default scan roots and extensions, shared by lintTree and countAllows so
/// the budget counts exactly what the linter scans.
std::vector<std::filesystem::path> collectSources(
    const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  static const char* kRoots[] = {"src", "bench", "examples", "tests"};
  static const char* kExts[] = {".cc", ".h", ".cpp", ".hpp"};
  std::vector<fs::path> files;
  for (const char* r : kRoots) {
    const fs::path dir = root / r;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (std::find(std::begin(kExts), std::end(kExts), ext) ==
          std::end(kExts)) {
        continue;
      }
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Resolve the scan root so findings are repo-relative however the tool was
/// invoked ("--root .", "--root ../..", an absolute path): symlinks and
/// dot-segments are folded away before fs::relative computes paths.
std::filesystem::path canonicalRoot(const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path canon = fs::weakly_canonical(fs::path(root), ec);
  if (ec || canon.empty()) canon = fs::absolute(fs::path(root), ec);
  if (ec || canon.empty()) canon = fs::path(root);
  return canon;
}

}  // namespace

// ----------------------------------------------------------------- public

const std::vector<RuleInfo>& rules() { return kRules; }

bool knownRule(const std::string& id) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return id == r.id; });
}

std::string ruleRationale(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return r.rationale;
  }
  return {};
}

std::vector<Finding> lintSource(const std::string& relPath,
                                const std::string& content,
                                const std::string& headerContent) {
  std::vector<Finding> out;
  const Lexed lexed = stripCommentsAndLiterals(content);
  const std::string headerCode =
      headerContent.empty() ? std::string()
                            : stripCommentsAndLiterals(headerContent).code;
  const std::vector<std::string> rawLines = splitLines(content);
  const std::vector<std::string> maskLines = splitLines(lexed.mask);
  const std::vector<std::string> codeLines = splitLines(lexed.code);
  std::map<int, Allow> allows = parseAllows(rawLines, maskLines, relPath, &out);
  propagateAllows(codeLines, &allows);

  const bool inSrc = startsWith(relPath, "src/");
  const bool simCore = inSimCore(relPath);

  std::vector<LineRule> lineRules;
  if (!startsWith(relPath, "src/sim/rng.")) {
    lineRules.push_back(
        {"raw-rng",
         std::regex(R"(\b(rand|srand)\s*\(|std::random_device|)"
                    R"(\brandom_device\b)"),
         "process-global/nondeterministic RNG; draw from a named sim::Rng "
         "stream instead"});
  }
  if (!startsWith(relPath, "src/prof/") && !startsWith(relPath, "bench/")) {
    lineRules.push_back(
        {"wall-clock",
         std::regex(R"(steady_clock|system_clock|high_resolution_clock|)"
                    R"(\bgettimeofday\b|\bclock_gettime\b|)"
                    R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\))"),
         "wall-clock read outside src/prof//bench/; simulated time comes "
         "from Scheduler::now()"});
  }
  if (simCore && !startsWith(relPath, "src/sim/time.h")) {
    lineRules.push_back(
        {"float-time",
         std::regex(R"(\.\s*toSeconds\s*\(|\bfromSeconds\s*\()"),
         "sim::Time <-> double round-trip in simulation-core code; keep "
         "float math in reporting layers or allowlist a fixed-op use"});
  }
  if (inSrc) {
    lineRules.push_back({"iostream-include",
                         std::regex(R"(#\s*include\s*<iostream>)"),
                         "<iostream> in library code; emit a trace record "
                         "or return data to the caller"});
  }
  applyLineRules(lineRules, codeLines, allows, relPath, &out);

  if (simCore) {
    checkUnorderedIteration(lexed.code, headerCode, codeLines, allows,
                            relPath, &out);
  }
  if (inSrc && !startsWith(relPath, "src/sim/scheduler.")) {
    checkSchedulerCategories(lexed.code, allows, relPath, &out);
  }
  if (inSrc) {
    checkSharedMutable(lexed.code, allows, relPath, &out);
  }
  if (simCore && !startsWith(relPath, "src/net/packet.")) {
    checkCausalIds(lexed.code, codeLines, allows, relPath, &out);
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
  });
  return out;
}

std::vector<Finding> lintTree(const std::string& root,
                              std::vector<std::string>* scannedFiles) {
  namespace fs = std::filesystem;
  const fs::path canon = canonicalRoot(root);
  const std::vector<fs::path> files = collectSources(canon);

  std::vector<Finding> out;
  for (const fs::path& p : files) {
    const std::string rel = fs::relative(p, canon).generic_string();
    if (scannedFiles) scannedFiles->push_back(rel);
    std::string header;
    const std::string ext = p.extension().string();
    if (ext == ".cc" || ext == ".cpp") {
      for (const char* hx : {".h", ".hpp"}) {
        fs::path hp = p;
        hp.replace_extension(hx);
        if (fs::exists(hp)) {
          header = slurp(hp);
          break;
        }
      }
    }
    std::vector<Finding> fs_ = lintSource(rel, slurp(p), header);
    out.insert(out.end(), fs_.begin(), fs_.end());
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) <
           std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::string formatFinding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

std::string ruleHint(const std::string& id) {
  for (const RuleInfo& r : kRules) {
    if (id == r.id) return r.hint;
  }
  return {};
}

std::string sarifReport(const std::vector<Finding>& findings) {
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < kRules.size(); ++i) index[kRules[i].id] = i;

  // A JSON string literal: the value escaped and wrapped in quotes.
  const auto quoted = [](std::string_view s) {
    std::string out = "\"";
    util::appendJsonEscaped(out, s);
    return out + '"';
  };

  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"manet_lint\",\n"
     << "          \"rules\": [\n";
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    const RuleInfo& r = kRules[i];
    os << "            {\n"
       << "              \"id\": " << quoted(r.id) << ",\n"
       << "              \"shortDescription\": { \"text\": "
       << quoted(r.summary) << " },\n"
       << "              \"fullDescription\": { \"text\": "
       << quoted(r.rationale) << " },\n"
       << "              \"help\": { \"text\": " << quoted(r.hint) << " },\n"
       << "              \"defaultConfiguration\": { \"level\": \"error\" }\n"
       << "            }" << (i + 1 < kRules.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "        {\n"
       << "          \"ruleId\": " << quoted(f.rule) << ",\n";
    const auto it = index.find(f.rule);
    if (it != index.end()) {
      os << "          \"ruleIndex\": " << it->second << ",\n";
    }
    os << "          \"level\": \"error\",\n"
       << "          \"message\": { \"text\": " << quoted(f.message)
       << " },\n"
       << "          \"locations\": [\n"
       << "            {\n"
       << "              \"physicalLocation\": {\n"
       << "                \"artifactLocation\": {\n"
       << "                  \"uri\": " << quoted(f.file) << ",\n"
       << "                  \"uriBaseId\": \"%SRCROOT%\"\n"
       << "                },\n"
       << "                \"region\": { \"startLine\": " << f.line
       << " }\n"
       << "              }\n"
       << "            }\n"
       << "          ]\n"
       << "        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

std::map<std::string, std::size_t> countAllows(const std::string& root) {
  std::map<std::string, std::size_t> counts;
  for (const RuleInfo& r : kRules) counts.emplace(r.id, 0);
  for (const auto& p : collectSources(canonicalRoot(root))) {
    const std::string content = slurp(p);
    const Lexed lexed = stripCommentsAndLiterals(content);
    const std::vector<std::string> rawLines = splitLines(content);
    const std::vector<std::string> maskLines = splitLines(lexed.mask);
    std::vector<Finding> meta;  // unknown-rule/bare-allow noise: lint's job
    const std::map<int, Allow> allows =
        parseAllows(rawLines, maskLines, p.generic_string(), &meta);
    for (const auto& [line, a] : allows) {
      if (!a.hasJustification) continue;  // bare allows suppress nothing
      for (const std::string& id : a.ruleIds) ++counts[id];
    }
  }
  return counts;
}

std::map<std::string, std::size_t> parseBudget(
    const std::string& content, std::vector<std::string>* errors) {
  std::map<std::string, std::size_t> budget;
  std::istringstream in(content);
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const std::size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    std::istringstream fields(line);
    std::string rule;
    long long n = -1;
    std::string extra;
    if (!(fields >> rule >> n) || n < 0 || (fields >> extra)) {
      if (errors) {
        errors->push_back("budget line " + std::to_string(lineNo) +
                          ": malformed entry '" + line +
                          "' (expected '<rule> <count>')");
      }
      continue;
    }
    if (!knownRule(rule)) {
      if (errors) {
        errors->push_back("budget line " + std::to_string(lineNo) +
                          ": unknown rule '" + rule + "'");
      }
      continue;
    }
    budget[rule] = static_cast<std::size_t>(n);
  }
  return budget;
}

std::string formatBudget(const std::map<std::string, std::size_t>& counts) {
  std::ostringstream os;
  os << "# manet_lint suppression budget: how many justified inline\n"
        "# `manet-lint: allow(<rule>)` markers each rule may carry across\n"
        "# the scan roots (src, bench, examples, tests).\n"
        "#\n"
        "# `manet_lint --check-budget` fails when a count grows past its\n"
        "# line here, so a new suppression needs either a fix or a\n"
        "# reviewed baseline bump (`manet_lint --write-budget`\n"
        "# regenerates this file from the tree).\n";
  for (const RuleInfo& r : kRules) {
    const auto it = counts.find(r.id);
    os << r.id << ' ' << (it == counts.end() ? 0 : it->second) << '\n';
  }
  return os.str();
}

int checkBudget(const std::map<std::string, std::size_t>& counts,
                const std::map<std::string, std::size_t>& budget,
                std::string* report) {
  const auto get = [](const std::map<std::string, std::size_t>& m,
                      const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? std::size_t{0} : it->second;
  };
  int overages = 0;
  for (const RuleInfo& r : kRules) {
    const std::size_t actual = get(counts, r.id);
    const std::size_t cap = get(budget, r.id);
    if (actual > cap) {
      ++overages;
      if (report) {
        *report += "over budget: " + std::string(r.id) + " carries " +
                   std::to_string(actual) + " allow(s), budget " +
                   std::to_string(cap) +
                   " — fix the new suppression or bump the baseline with "
                   "--write-budget\n";
      }
    } else if (actual < cap && report) {
      *report += "slack: " + std::string(r.id) + " carries " +
                 std::to_string(actual) + " allow(s), budget " +
                 std::to_string(cap) +
                 " — consider ratcheting the baseline down\n";
    }
  }
  if (report) {
    *report += overages == 0 ? "allow budget OK\n"
                             : "allow budget exceeded\n";
  }
  return overages == 0 ? 0 : 1;
}

}  // namespace manet::lint
