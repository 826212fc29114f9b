// Executes a FaultPlan against a live Network.
//
// The injector is owned by the Network (installFaults) and drives everything
// through the shared scheduler: scripted crashes and recoveries fire at
// their timestamps, and each churning node re-arms its next crash or
// recovery with exponentially distributed up/down times drawn from a
// dedicated "fault" RNG stream. Because that stream is derived (not
// consumed) from the network RNG and nothing is armed for an empty plan, a
// run without faults is bit-identical to one on a build without this
// subsystem.
//
// Every injected fault is counted in Metrics (fault* counters) and emitted
// through the Tracer (node_crash / node_recover records), so traces
// reconcile with metrics and the tools/manet_trace summary can show a fault
// timeline.
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

namespace manet::fault {

class FaultInjector {
 public:
  /// All nodes must already be added to `network`; `horizon` is the run
  /// length (churn stops re-arming past it).
  FaultInjector(net::Network& network, FaultPlan plan, sim::Time horizon);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  bool nodeUp(net::NodeId id) const { return !down_.at(id); }

 private:
  sim::Scheduler& sched();

  void scheduleScripted();
  void startChurn();
  void churnCrash(net::NodeId id);
  void churnRecover(net::NodeId id);

  void crash(net::NodeId id);
  void recover(net::NodeId id, bool wipeCaches);

  /// Draw an exponential duration, floored at 1 ms so churn always makes
  /// forward progress.
  sim::Time expDuration(double meanSec);

  void traceFault(telemetry::TraceEvent event, net::NodeId node,
                  std::int64_t detail);

  net::Network& net_;
  FaultPlan plan_;
  sim::Time horizon_;
  sim::Rng rng_;  // churn node selection and up/down times
  std::vector<bool> down_;
};

}  // namespace manet::fault
