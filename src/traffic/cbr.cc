#include "src/traffic/cbr.h"

#include <cassert>

namespace manet::traffic {

CbrSource::CbrSource(net::RoutingAgent& agent, sim::Scheduler& sched,
                     const Params& p)
    : agent_(agent), sched_(sched), params_(p) {
  assert(p.packetsPerSecond > 0.0);
  // manet-lint: allow(float-time): rate -> interval, fixed-op conversion
  interval_ = sim::Time::fromSeconds(1.0 / p.packetsPerSecond);
  sched_.scheduleAt(
      params_.start, [this] { tick(); }, prof::Category::kTraffic);
}

void CbrSource::tick() {
  if (sched_.now() > params_.stop) return;
  agent_.sendData(params_.dst, params_.payloadBytes, params_.flowId, sent_);
  ++sent_;
  sched_.scheduleAfter(
      interval_, [this] { tick(); }, prof::Category::kTraffic);
}

}  // namespace manet::traffic
