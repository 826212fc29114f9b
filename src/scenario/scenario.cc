#include "src/scenario/scenario.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "src/mobility/waypoint.h"
#include "src/sim/rng.h"

namespace manet::scenario {

void ScenarioConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("scenario config: " + what);
  };
  if (numNodes <= 0) {
    fail("numNodes must be > 0, got " + std::to_string(numNodes));
  }
  if (field.x <= 0.0 || field.y <= 0.0) {
    fail("field dimensions must be > 0, got " + std::to_string(field.x) +
         " x " + std::to_string(field.y));
  }
  if (minSpeed < 0.0) {
    fail("minSpeed must be >= 0, got " + std::to_string(minSpeed));
  }
  if (maxSpeed <= 0.0 || maxSpeed < minSpeed) {
    fail("maxSpeed must be > 0 and >= minSpeed, got minSpeed=" +
         std::to_string(minSpeed) + " maxSpeed=" + std::to_string(maxSpeed));
  }
  if (numFlows < 0) {
    fail("numFlows must be >= 0, got " + std::to_string(numFlows));
  }
  const long long orderablePairs =
      static_cast<long long>(numNodes) * (numNodes - 1);
  if (numFlows > orderablePairs) {
    fail("numFlows (" + std::to_string(numFlows) + ") exceeds the " +
         std::to_string(orderablePairs) + " orderable src/dst pairs of " +
         std::to_string(numNodes) + " nodes");
  }
  if (numFlows > 0 && packetsPerSecond <= 0.0) {
    fail("packetsPerSecond must be > 0, got " +
         std::to_string(packetsPerSecond));
  }
  if (numFlows > 0 && payloadBytes == 0) fail("payloadBytes must be > 0");
  if (duration <= sim::Time::zero()) fail("duration must be > 0");
  if (flowStartWindow <= sim::Time::zero()) {
    fail("flowStartWindow must be > 0");
  }
  core::validate(dsr);
  fault.validate(numNodes, duration);
}

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  // Packet uids and cache-provenance ids restart at 1 for every run so
  // traces are a deterministic function of the config alone — byte-identical
  // whether the run executes serially, on a sweep worker thread, or in a
  // fresh process.
  net::Packet::resetUidCounter();
  net::RouteProvenance::resetIdCounter();
  // The neighbor index must bound node speed to stay an exact superset
  // filter; random waypoint never exceeds the configured maxSpeed.
  cfg_.phy.indexSpeedBound = std::max(cfg_.phy.indexSpeedBound, cfg_.maxSpeed);
  net::NetworkConfig netCfg{cfg_.phy, cfg.mac, cfg.protocol, cfg.dsr,
                            cfg.aodv};
  // Seed the network (MAC jitter, DSR jitter) from the mobility seed so a
  // different replication is a genuinely different random world, while the
  // traffic pattern below stays fixed across replications.
  network_ = std::make_unique<net::Network>(netCfg, cfg.mobilitySeed);

  // Profiling attaches first so even construction-time events (flow start
  // jitter, sampler probes) are attributed. Wall-clock only: cannot
  // perturb the run.
  network_->enableProfiling(cfg_.prof);

  // Telemetry: attach sinks before any node exists so even construction-time
  // events would be caught, and start the sampler before traffic begins.
  const telemetry::TelemetryConfig& tel = cfg.telemetry;
  if (tel.ringCapacity > 0) {
    ring_ = std::make_unique<telemetry::RingBufferSink>(tel.ringCapacity);
    network_->tracer().addSink(ring_.get());
  }
  if (!tel.traceJsonlPath.empty()) {
    jsonl_ = std::make_unique<telemetry::JsonlFileSink>(tel.traceJsonlPath);
    if (jsonl_->ok()) network_->tracer().addSink(jsonl_.get());
  }
  if (tel.samplePeriod > sim::Time::zero()) {
    sampler_ =
        std::make_unique<telemetry::Sampler>(*network_, tel.samplePeriod);
    sampler_->start();
  }
  if (cfg_.invariantChecks || fault::InvariantChecker::enabledFromEnv()) {
    checker_ = std::make_unique<fault::InvariantChecker>(
        static_cast<std::size_t>(cfg_.numNodes));
    network_->tracer().addSink(checker_.get());
  }

  sim::Rng mobilityRng(cfg.mobilitySeed);
  mobility::RandomWaypoint::Params wp;
  wp.field = cfg.field;
  wp.minSpeed = cfg.minSpeed;
  wp.maxSpeed = cfg.maxSpeed;
  wp.pause = cfg.pause;
  wp.horizon = cfg.duration;
  for (int i = 0; i < cfg.numNodes; ++i) {
    network_->addNode(std::make_unique<mobility::RandomWaypoint>(
        mobilityRng.stream("waypoint", static_cast<std::uint64_t>(i)), wp));
  }

  // Traffic: source-destination pairs spread randomly over the network,
  // fixed by the traffic seed.
  sim::Rng trafficRng(cfg.trafficSeed);
  for (int f = 0; f < cfg.numFlows; ++f) {
    net::NodeId src, dst;
    do {
      src = static_cast<net::NodeId>(
          trafficRng.uniformInt(0, cfg.numNodes - 1));
      dst = static_cast<net::NodeId>(
          trafficRng.uniformInt(0, cfg.numNodes - 1));
    } while (src == dst);
    flowEndpoints_.emplace_back(src, dst);

    traffic::CbrSource::Params p;
    p.dst = dst;
    p.packetsPerSecond = cfg.packetsPerSecond;
    p.payloadBytes = cfg.payloadBytes;
    p.start = sim::Time::nanos(trafficRng.uniformInt(
        1, std::max<std::int64_t>(1, cfg.flowStartWindow.ns())));
    p.stop = cfg.duration;
    p.flowId = static_cast<std::uint32_t>(f);
    sources_.push_back(std::make_unique<traffic::CbrSource>(
        network_->node(src).routing(), network_->scheduler(), p));
  }

  // Faults go in after nodes and sources exist; an empty plan installs
  // nothing and the run stays bit-identical to a fault-free build.
  network_->installFaults(cfg_.fault, cfg_.duration);
  if (checker_) scheduleCacheConsistencySweep(sim::Time::seconds(1));
}

void Scenario::scheduleCacheConsistencySweep(sim::Time at) {
  if (at >= cfg_.duration) return;
  network_->scheduler().scheduleAt(
      at,
      [this, at] {
        fault::checkCacheConsistency(*network_, *checker_);
        scheduleCacheConsistencySweep(at + sim::Time::seconds(1));
      },
      prof::Category::kTelemetry);
}

RunResult Scenario::run() {
  // Audited: these are the only wall-clock reads outside src/prof//bench/.
  // They bracket the whole run and land solely in RunResult::wallSeconds,
  // which is excluded from deterministic exports; no simulation decision
  // ever reads them. All simulated time comes from Scheduler::now().
  // manet-lint: allow(wall-clock): run timing for reports only
  const auto wallStart = std::chrono::steady_clock::now();
  network_->run(cfg_.duration);
  // manet-lint: allow(wall-clock): run timing for reports only
  const auto wallEnd = std::chrono::steady_clock::now();
  network_->tracer().flush();
  RunResult r;
  r.metrics = network_->metrics();
  r.duration = cfg_.duration;
  r.eventsExecuted = network_->scheduler().executedCount();
  r.wallSeconds = std::chrono::duration<double>(wallEnd - wallStart).count();
  r.schedQueuePeak = network_->scheduler().queueHighWater();
  if (prof::Profiler* p = network_->profiler()) {
    r.profile = p->report();
  }
  if (sampler_) r.series = sampler_->takeSeries();
  if (checker_) {
    checker_->finalCheck(r.metrics);
    if (!checker_->violations().empty()) {
      std::string msg = "invariant violations (" +
                        std::to_string(checker_->violations().size()) + "):";
      for (const auto& v : checker_->violations()) msg += "\n  " + v;
      throw std::runtime_error(msg);
    }
  }
  return r;
}

RunResult runScenario(const ScenarioConfig& cfg) {
  Scenario s(cfg);
  return s.run();
}

}  // namespace manet::scenario
