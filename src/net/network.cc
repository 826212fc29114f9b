#include "src/net/network.h"

#include "src/fault/fault_injector.h"
#include "src/net/packet.h"
#include "src/telemetry/trace.h"

namespace manet::net {

Network::Network(const NetworkConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      rng_(seed),
      channel_(sched_, cfg.phy),
      oracle_(channel_.neighborIndex(), cfg.phy.rangeMeters) {
  tracer_.bindClock(&sched_);
}

Network::~Network() = default;

void Network::enableProfiling(const prof::ProfConfig& cfg) {
  if (!cfg.installed()) return;
  profiler_ = std::make_unique<prof::Profiler>(cfg);
  sched_.setProfiler(profiler_.get());
  // Allocation-site unit sizes: prof cannot see the concrete types, so the
  // layer that can registers them once at install time.
  prof::AllocTracker& tracker = profiler_->allocTracker();
  tracker.setUnitBytes(prof::AllocSite::kPacket, sizeof(Packet));
  tracker.setUnitBytes(prof::AllocSite::kEvent,
                       sim::Scheduler::eventEntryBytes());
  tracker.setUnitBytes(prof::AllocSite::kTraceRecord,
                       sizeof(telemetry::TraceRecord));
  // Presize the per-entity table for nodes added before profiling came up
  // (addNode keeps it sized afterwards) so the record path never allocates.
  profiler_->ensureEntities(nodes_.size());
}

void Network::installFaults(const fault::FaultPlan& plan, sim::Time horizon) {
  if (plan.empty()) return;
  plan.validate(static_cast<int>(nodes_.size()), horizon);
  faults_ = std::make_unique<fault::FaultInjector>(*this, plan, horizon);
}

Node& Network::addNode(std::unique_ptr<mobility::MobilityModel> mobility) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  const NodeConfig nodeCfg{cfg_.mac, cfg_.protocol, cfg_.dsr, cfg_.aodv};
  nodes_.push_back(std::make_unique<Node>(id, std::move(mobility), channel_,
                                          sched_, rng_, nodeCfg, &metrics_,
                                          &oracle_, &tracer_));
  if (profiler_ != nullptr) profiler_->ensureEntities(nodes_.size());
  return *nodes_.back();
}

}  // namespace manet::net
