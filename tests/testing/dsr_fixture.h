// Shared test harness for DSR protocol tests: builds a Network over static
// or scripted (teleporting) node placements so topology changes are exact
// and deterministic.
#pragma once

#include <memory>
#include <vector>

#include "src/core/dsr_config.h"
#include "src/mobility/mobility_model.h"
#include "src/net/network.h"

namespace manet::testing {

/// Sits at `before` until `switchAt`, then jumps to `after`. Lets tests
/// break a specific link at a specific instant.
class TeleportMobility final : public mobility::MobilityModel {
 public:
  TeleportMobility(Vec2 before, Vec2 after, sim::Time switchAt)
      : before_(before), after_(after), switchAt_(switchAt) {}
  mobility::Segment segmentAt(sim::Time t) const override {
    if (t < switchAt_) {
      return mobility::Segment::fixed(before_, sim::Time::min(), switchAt_);
    }
    return mobility::Segment::fixed(after_, switchAt_, sim::Time::max());
  }

 private:
  Vec2 before_;
  Vec2 after_;
  sim::Time switchAt_;
};

struct DsrFixture {
  explicit DsrFixture(const core::DsrConfig& dsrCfg = {},
                      std::uint64_t seed = 1) {
    net::NetworkConfig cfg;
    cfg.dsr = dsrCfg;
    network = std::make_unique<net::Network>(cfg, seed);
  }

  net::Node& addStatic(Vec2 pos) {
    return network->addNode(std::make_unique<mobility::StaticMobility>(pos));
  }

  net::Node& addTeleport(Vec2 before, Vec2 after, sim::Time switchAt) {
    return network->addNode(
        std::make_unique<TeleportMobility>(before, after, switchAt));
  }

  /// A chain 0-1-2-...-(n-1) with 200 m spacing: adjacent nodes connected,
  /// two-hop neighbors (400 m) out of range.
  void addLine(int n, double spacing = 200.0) {
    for (int i = 0; i < n; ++i) addStatic({i * spacing, 0.0});
  }

  void run(sim::Time until) { network->run(until); }
  metrics::Metrics& metrics() { return network->metrics(); }
  core::DsrAgent& dsr(net::NodeId id) { return network->node(id).dsr(); }

  std::unique_ptr<net::Network> network;
};

}  // namespace manet::testing
