// Constant-bit-rate traffic source (the paper's workload).
//
// 25 CBR flows of 512-byte packets; the per-flow packet rate is the offered
// load knob in Fig. 4. Flows start at random times near the beginning of the
// run and stay active to the end.
#pragma once

#include <cstdint>

#include "src/net/routing_agent.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace manet::traffic {

class CbrSource {
 public:
  struct Params {
    net::NodeId dst = 0;
    double packetsPerSecond = 3.0;
    std::uint32_t payloadBytes = 512;
    sim::Time start;
    sim::Time stop = sim::Time::max();
    std::uint32_t flowId = 0;
  };

  CbrSource(net::RoutingAgent& agent, sim::Scheduler& sched,
            const Params& p);
  CbrSource(const CbrSource&) = delete;
  CbrSource& operator=(const CbrSource&) = delete;

  std::uint64_t packetsSent() const { return sent_; }

 private:
  void tick();

  net::RoutingAgent& agent_;
  sim::Scheduler& sched_;
  Params params_;
  sim::Time interval_;
  std::uint64_t sent_ = 0;
};

}  // namespace manet::traffic
