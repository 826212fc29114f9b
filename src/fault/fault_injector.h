// Executes a FaultPlan against a live Network.
//
// The injector is owned by the Network (installFaults) and drives everything
// through the shared scheduler: scripted events fire at their timestamps,
// and each enabled stochastic generator (churn, blackouts, noise, surges)
// re-arms itself with exponentially distributed gaps drawn from a dedicated
// "fault" RNG stream. Because that stream is derived (not consumed) from the
// network RNG and no generator is armed for an empty plan, a run without
// faults is bit-identical to one on a build without this subsystem.
//
// Every injected fault is counted in Metrics (fault* counters) and emitted
// through the Tracer (node_crash / node_recover / link_blackout /
// noise_burst / traffic_surge records), so traces reconcile with metrics
// and the tools/manet_trace summary can show a fault timeline.
#pragma once

#include <vector>

#include "src/fault/fault_plan.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "src/telemetry/trace.h"

namespace manet::net {
class Network;
}
namespace manet::sim {
class Scheduler;
}
namespace manet::traffic {
class CbrSource;
}

namespace manet::fault {

class FaultInjector {
 public:
  /// All nodes must already be added to `network`; `horizon` is the run
  /// length (generators stop re-arming past it).
  FaultInjector(net::Network& network, FaultPlan plan, sim::Time horizon);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Register a CBR source for traffic surges (non-owning; must outlive the
  /// run). Call before the simulation starts.
  void attachTrafficSource(traffic::CbrSource* src) {
    sources_.push_back(src);
  }

  bool nodeUp(net::NodeId id) const { return !down_.at(id); }
  const FaultPlan& plan() const { return plan_; }

 private:
  sim::Scheduler& sched();

  void scheduleScripted();
  void startChurn();
  void churnCrash(net::NodeId id);
  void churnRecover(net::NodeId id);
  void armBlackoutGenerator(sim::Time at);
  void armNoiseGenerator(sim::Time at);
  void armSurgeGenerator(sim::Time at);

  void crash(net::NodeId id);
  void recover(net::NodeId id, bool wipeCaches);
  void beginBlackout(net::NodeId from, net::NodeId to, sim::Time duration,
                     bool bothDirections);
  void beginNoise(sim::Time duration, double corruptProb);
  void endNoise();
  void beginSurge(sim::Time duration, double multiplier);
  void endSurge();

  /// Draw an exponential duration, floored at 1 ms so generators always
  /// make forward progress.
  sim::Time expDuration(double meanSec);

  void traceFault(telemetry::TraceEvent event, net::NodeId node,
                  net::NodeId src, net::NodeId dst, std::int64_t detail);

  net::Network& net_;
  FaultPlan plan_;
  sim::Time horizon_;
  sim::Rng rng_;       // generator gaps, durations, target selection
  sim::Rng noiseRng_;  // consumed by radios while a noise burst is active
  std::vector<bool> down_;
  std::vector<traffic::CbrSource*> sources_;
  /// Scratch for in-range blackout target selection (kept across windows so
  /// the hot path does not allocate).
  std::vector<net::NodeId> candidates_;
  bool noiseActive_ = false;
  bool surgeActive_ = false;
};

}  // namespace manet::fault
