// Scenario construction and single-run execution: the paper's simulation
// setup (100 nodes, 2200 m x 600 m, random waypoint, 25 CBR flows, 500 s).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/fault/fault_plan.h"
#include "src/fault/invariant_checker.h"
#include "src/mac/dcf_mac.h"
#include "src/metrics/metrics.h"
#include "src/net/network.h"
#include "src/phy/channel.h"
#include "src/prof/profiler.h"
#include "src/telemetry/perfetto.h"
#include "src/telemetry/sampler.h"
#include "src/telemetry/telemetry_config.h"
#include "src/telemetry/trace.h"
#include "src/traffic/cbr.h"
#include "src/util/vec2.h"

namespace manet::scenario {

struct ScenarioConfig {
  int numNodes = 100;
  Vec2 field{2200.0, 600.0};
  double minSpeed = 0.1;   // m/s
  double maxSpeed = 20.0;  // m/s
  sim::Time pause = sim::Time::zero();
  int numFlows = 25;
  double packetsPerSecond = 3.0;
  std::uint32_t payloadBytes = 512;
  sim::Time duration = sim::Time::seconds(500);
  /// Flows start uniformly within this window ("at random times near the
  /// beginning of the simulation run").
  sim::Time flowStartWindow = sim::Time::seconds(5);
  /// Varies per replication (new mobility pattern per run).
  std::uint64_t mobilitySeed = 1;
  /// Fixed across replications (identical traffic endpoints and rates).
  std::uint64_t trafficSeed = 42;

  /// Routing protocol to run (DSR is the paper's subject; AODV is the
  /// comparison protocol of its companion studies).
  net::Protocol protocol = net::Protocol::kDsr;
  core::DsrConfig dsr;
  aodv::AodvConfig aodv;
  mac::MacConfig mac;
  /// Scenario's constructor raises the index speed bound to this
  /// scenario's maxSpeed so grid queries stay exact.
  phy::PhyConfig phy;

  /// Ignored; perfbench/driver/workloads.cc still sets it to kCalendar.
  sim::EventQueueKind eventQueue = sim::EventQueueKind::kCalendar;

  /// Tracing / sampling / export knobs; defaults pick up the MANET_*
  /// environment overrides so every bench binary is switchable without
  /// recompiling (see src/telemetry/telemetry_config.h).
  telemetry::TelemetryConfig telemetry = telemetry::TelemetryConfig::fromEnv();

  /// Injected adversities (node churn, blackouts, noise, surges); the
  /// default picks up MANET_FAULT_* environment overrides and is otherwise
  /// empty — an empty plan is a strict no-op (bit-identical runs).
  fault::FaultPlan fault = fault::FaultPlan::fromEnv();

  /// Self-profiling knobs (per-category wall-time attribution); defaults
  /// pick up MANET_PROF_* environment overrides.
  /// Profiling reads only the wall clock, so enabling it keeps runs
  /// bit-identical (enforced by tests/integration).
  prof::ProfConfig prof = prof::ProfConfig::fromEnv();

  /// Install the InvariantChecker for this run (also switchable globally
  /// with MANET_CHECK=1). Violations make Scenario::run() throw.
  bool invariantChecks = false;

  /// Fail-fast sanity checks over every knob above (and the nested dsr /
  /// fault configs). Throws std::invalid_argument; called by Scenario's
  /// constructor so a bad config can never start a run.
  void validate() const;
};

struct RunResult {
  metrics::Metrics metrics;
  sim::Time duration;
  std::uint64_t eventsExecuted = 0;
  double wallSeconds = 0.0;
  /// Scheduler-queue high-water mark; always tracked, profiling or not.
  std::uint64_t schedQueuePeak = 0;
  /// Time-series samples (empty unless cfg.telemetry.samplePeriod > 0).
  telemetry::SampleSeries series;
  /// Per-category wall-time breakdown (profile.enabled is false unless
  /// cfg.prof.enabled was set for the run).
  prof::Report profile;
};

/// A live scenario: the network plus its traffic sources. Exposed (rather
/// than only runScenario) so examples and tests can poke at nodes mid-run.
class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg);

  net::Network& network() { return *network_; }
  const ScenarioConfig& config() const { return cfg_; }
  const std::vector<std::pair<net::NodeId, net::NodeId>>& flows() const {
    return flowEndpoints_;
  }

  /// Run to completion and collect results.
  RunResult run();

  /// The in-memory ring sink, if cfg.telemetry.ringCapacity > 0.
  const telemetry::RingBufferSink* ring() const { return ring_.get(); }

  /// The invariant checker, if installed for this run.
  const fault::InvariantChecker* checker() const { return checker_.get(); }

  ~Scenario();

 private:
  ScenarioConfig cfg_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<traffic::CbrSource>> sources_;
  std::vector<std::pair<net::NodeId, net::NodeId>> flowEndpoints_;
  // Telemetry plumbing (sinks outlive the network's Tracer pointers).
  std::unique_ptr<telemetry::RingBufferSink> ring_;
  std::unique_ptr<telemetry::JsonlFileSink> jsonl_;
  std::unique_ptr<telemetry::PerfettoSink> perfetto_;
  std::unique_ptr<telemetry::Sampler> sampler_;
  std::unique_ptr<fault::InvariantChecker> checker_;
  bool logSinkInstalled_ = false;

  void scheduleCacheConsistencySweep(sim::Time at);
};

/// Convenience: build and run in one call.
RunResult runScenario(const ScenarioConfig& cfg);

}  // namespace manet::scenario
