// The Network owns the scheduler, channel, nodes and metrics for one run.
#pragma once

#include <memory>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/mac/dcf_mac.h"
#include "src/metrics/metrics.h"
#include "src/metrics/oracle.h"
#include "src/net/node.h"
#include "src/phy/channel.h"
#include "src/prof/profiler.h"
#include "src/sim/rng.h"
#include "src/sim/scheduler.h"
#include "src/telemetry/trace.h"

namespace manet::fault {
struct FaultPlan;
class FaultInjector;
}  // namespace manet::fault

namespace manet::net {

struct NetworkConfig {
  phy::PhyConfig phy;
  mac::MacConfig mac;
  Protocol protocol = Protocol::kDsr;
  core::DsrConfig dsr;
  aodv::AodvConfig aodv;
};

class Network {
 public:
  Network(const NetworkConfig& cfg, std::uint64_t seed);
  ~Network();

  /// Add a node with the given trajectory; ids are assigned sequentially
  /// from 0. All nodes must be added before the simulation runs.
  Node& addNode(std::unique_ptr<mobility::MobilityModel> mobility);

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t size() const { return nodes_.size(); }

  sim::Scheduler& scheduler() { return sched_; }
  phy::Channel& channel() { return channel_; }
  metrics::Metrics& metrics() { return metrics_; }
  const metrics::LinkOracle& oracle() const { return oracle_; }
  const sim::Rng& rng() const { return rng_; }
  /// Trace dispatch point; attach sinks before adding traffic to capture a
  /// full run. With no sinks attached, tracing costs one branch per hook.
  telemetry::Tracer& tracer() { return tracer_; }

  /// Construct and attach the self-profiler when `cfg.enabled`; call
  /// before the run starts. Profiling reads only the wall clock — never
  /// sim time or sim RNG — so enabling it cannot change a run's results.
  /// A disabled config is a no-op.
  void enableProfiling(const prof::ProfConfig& cfg);
  /// The installed profiler, or nullptr (subsystems use the scheduler's
  /// accessor on the hot path; this one is for reports).
  prof::Profiler* profiler() { return profiler_.get(); }

  /// Install a fault plan (validated fail-fast against the current node
  /// count). Call after all nodes are added and before the run starts. An
  /// empty plan installs nothing — the fault layer is then a strict no-op.
  void installFaults(const fault::FaultPlan& plan, sim::Time horizon);
  /// The installed injector, or nullptr when no (non-empty) plan was given.
  fault::FaultInjector* faults() { return faults_.get(); }

  Vec2 positionOf(NodeId id, sim::Time t) const {
    // One query path for positions: the channel's neighbor index (which
    // charges the evaluation to the mobility category).
    return channel_.neighborIndex().positionAt(id, t);
  }

  void run(sim::Time until) { sched_.runUntil(until); }

 private:
  NetworkConfig cfg_;
  sim::Rng rng_;
  sim::Scheduler sched_;
  phy::Channel channel_;
  metrics::Metrics metrics_;
  metrics::LinkOracle oracle_;
  telemetry::Tracer tracer_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<fault::FaultInjector> faults_;
  std::unique_ptr<prof::Profiler> profiler_;
};

}  // namespace manet::net
