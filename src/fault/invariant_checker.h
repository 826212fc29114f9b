// Opt-in simulator hardening: cross-checks that must hold in ANY run,
// faulted or not, verified from the trace stream while it is produced.
//
// The checker is a TraceSink, so installing it turns tracing on and lets it
// observe every record the hooks emit. It verifies:
//  * time monotonicity — records never go backwards (a scheduler or clock
//    bug would);
//  * data-packet lifecycle — a data packet is forwarded/delivered/dropped
//    only after exactly one origination record for its uid;
//  * fault alternation — a node never crashes twice without recovering in
//    between (and vice versa), and a down node never forwards or delivers
//    (its radio is off);
//  * structural sanity — drop records carry a reason, nothing else does.
// It deliberately does NOT require one terminal event per uid: a lost MAC
// ACK legitimately yields both a downstream delivery and an upstream
// salvage-drop of the same packet.
//
// finalCheck() then reconciles the stream against the run's Metrics —
// every counted drop/origination/delivery/fault has its record — which is
// the packet-conservation property: counters and traces cannot drift apart.
//
// checkCacheConsistency() is a polled companion (the Scenario runs it every
// simulated second when checks are on): no link may simultaneously be in a
// node's route cache and its negative cache (the paper's mutual-exclusion
// rule for technique 3).
//
// Violations are collected, not thrown, so a post-mortem sees all of them;
// Scenario::run() throws at the end of a checked run if any accumulated.
// Enable per-config (ScenarioConfig::invariantChecks) or globally with the
// MANET_CHECK=1 environment knob.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/telemetry/trace.h"

namespace manet::net {
class Network;
}

namespace manet::fault {

class InvariantChecker final : public telemetry::TraceSink {
 public:
  explicit InvariantChecker(std::size_t numNodes);

  void record(const telemetry::TraceRecord& r) override;

  /// End-of-run reconciliation against the aggregate counters.
  void finalCheck(const metrics::Metrics& m);

  /// External checks (e.g. checkCacheConsistency) report through this.
  void noteViolation(std::string what) {
    violations_.push_back(std::move(what));
  }

  const std::vector<std::string>& violations() const { return violations_; }
  std::uint64_t recordsChecked() const { return recordsChecked_; }

  /// True when the MANET_CHECK environment knob is "1".
  static bool enabledFromEnv();

 private:
  void expectEq(std::uint64_t traced, std::uint64_t counted,
                const char* what);

  std::size_t numNodes_;
  sim::Time lastAt_ = sim::Time::zero();
  std::vector<bool> down_;
  std::unordered_set<std::uint64_t> originatedUids_;
  std::map<std::string, std::uint64_t> dropsByReason_;
  std::uint64_t originated_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t recordsChecked_ = 0;
  std::vector<std::string> violations_;
};

/// Sweep every DSR node for route-cache/negative-cache mutual-exclusion
/// breaches, reporting violations into `checker`. Read-only.
void checkCacheConsistency(net::Network& network, InvariantChecker& checker);

}  // namespace manet::fault
