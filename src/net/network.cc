#include "src/net/network.h"

#include "src/fault/fault_injector.h"

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
  if (!cfg.enabled) return;
  profiler_ = std::make_unique<prof::Profiler>(cfg);
  sched_.setProfiler(profiler_.get());
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
  return *nodes_.back();
}

}  // namespace manet::net
