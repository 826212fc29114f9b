// Fault-injection plan: which nodes crash, and when.
//
// The paper's only source of route staleness is random-waypoint mobility;
// real MANETs also lose routes to nodes that crash and reboot. A FaultPlan
// describes that declaratively — a list of scripted crash/recover events
// plus an optional stochastic churn generator — and is executed by the
// FaultInjector (owned by the Network) against a dedicated RNG stream, so an
// all-empty plan leaves every run bit-identical to a build without the fault
// layer.
//
// Fault semantics (full discussion in DESIGN.md "Fault model"):
//  * node crash     — the node's radio neither sends nor receives; queued
//    MAC packets are dropped (reason `node_down`); the protocol stack stays
//    alive and reacts through the normal MAC-timeout paths.
//  * node recover   — the radio comes back; caches optionally wiped
//    (a rebooted node loses its soft state).
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace manet::fault {

enum class FaultKind : std::uint8_t {
  kNodeCrash,
  kNodeRecover,
};
const char* toString(FaultKind k);

/// One scripted fault: `node` crashes or recovers at `at`.
struct FaultEvent {
  FaultKind kind = FaultKind::kNodeCrash;
  sim::Time at;
  net::NodeId node = 0;
};

/// Stochastic node churn: `fraction` of the nodes cycle between up and down
/// states with exponentially distributed up/down times.
struct ChurnSpec {
  double fraction = 0.0;  // 0 disables churn
  double meanUpTimeSec = 30.0;
  double meanDownTimeSec = 10.0;
  bool wipeCachesOnRecovery = true;
};

struct FaultPlan {
  std::vector<FaultEvent> scripted;
  ChurnSpec churn;
  /// Salt mixed into the network's "fault" RNG stream, so the fault pattern
  /// can be varied independently of mobility and traffic.
  std::uint64_t seed = 0;

  /// True when nothing is scripted and churn is disabled; the Network then
  /// skips constructing an injector entirely (strict no-op).
  bool empty() const;

  /// Fail-fast sanity check against the scenario it will run in. Throws
  /// std::invalid_argument with an actionable message on the first problem.
  void validate(int numNodes, sim::Time horizon) const;

  /// Environment overrides (see README "Fault injection" for the table):
  ///   MANET_FAULT_CHURN_FRACTION / _CHURN_UP / _CHURN_DOWN / _CHURN_WIPE
  ///   MANET_FAULT_SEED
  static FaultPlan fromEnv();
  static FaultPlan fromEnv(FaultPlan base);
};

}  // namespace manet::fault
