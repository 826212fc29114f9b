#include "src/fault/fault_injector.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/net/network.h"
#include "src/phy/radio.h"

namespace manet::fault {

FaultInjector::FaultInjector(net::Network& network, FaultPlan plan,
                             sim::Time horizon)
    : net_(network),
      plan_(std::move(plan)),
      horizon_(horizon),
      rng_(network.rng().stream("fault", plan_.seed)),
      down_(network.size(), false) {
  scheduleScripted();
  if (plan_.churn.fraction > 0.0) startChurn();
}

sim::Scheduler& FaultInjector::sched() { return net_.scheduler(); }

sim::Time FaultInjector::expDuration(double meanSec) {
  // manet-lint: allow(float-time): exponential draw comes off the dedicated
  // fault RNG stream; fixed-op conversion, same seed -> same Time.
  return std::max(sim::Time::fromSeconds(rng_.exponential(meanSec)),
                  sim::Time::millis(1));
}

// ------------------------------------------------------------- scripted

void FaultInjector::scheduleScripted() {
  for (const FaultEvent& ev : plan_.scripted) {
    sched().scheduleAt(
        ev.at,
        [this, ev] {
          if (ev.kind == FaultKind::kNodeCrash) {
            crash(ev.node);
          } else {
            recover(ev.node, plan_.churn.wipeCachesOnRecovery);
          }
        },
        prof::Category::kFault);
  }
}

// ---------------------------------------------------------------- churn

void FaultInjector::startChurn() {
  const auto n = static_cast<std::size_t>(net_.size());
  auto count = static_cast<std::size_t>(
      std::lround(plan_.churn.fraction * static_cast<double>(n)));
  count = std::clamp<std::size_t>(count, 1, n);
  // Partial Fisher-Yates: pick `count` distinct churn nodes.
  std::vector<net::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), net::NodeId{0});
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng_.uniformInt(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(n - 1)));
    std::swap(ids[i], ids[j]);
    const net::NodeId id = ids[i];
    sched().scheduleAt(
        expDuration(plan_.churn.meanUpTimeSec),
        [this, id] { churnCrash(id); }, prof::Category::kFault);
  }
}

void FaultInjector::churnCrash(net::NodeId id) {
  crash(id);
  const sim::Time at =
      sched().now() + expDuration(plan_.churn.meanDownTimeSec);
  if (at < horizon_) {
    sched().scheduleAt(
        at, [this, id] { churnRecover(id); }, prof::Category::kFault);
  }
}

void FaultInjector::churnRecover(net::NodeId id) {
  recover(id, plan_.churn.wipeCachesOnRecovery);
  const sim::Time at = sched().now() + expDuration(plan_.churn.meanUpTimeSec);
  if (at < horizon_) {
    sched().scheduleAt(
        at, [this, id] { churnCrash(id); }, prof::Category::kFault);
  }
}

// -------------------------------------------------------------- actions

void FaultInjector::crash(net::NodeId id) {
  if (down_.at(id)) return;  // scripted/churn overlap: already down
  down_[id] = true;
  net::Node& node = net_.node(id);
  node.radio().setUp(false);
  node.macLayer().flushQueue();
  ++net_.metrics().faultNodeCrashes;
  traceFault(telemetry::TraceEvent::kNodeCrash, id, 0);
}

void FaultInjector::recover(net::NodeId id, bool wipeCaches) {
  if (!down_.at(id)) return;
  down_[id] = false;
  net::Node& node = net_.node(id);
  node.radio().setUp(true);
  const bool wiped = wipeCaches && node.protocol() == net::Protocol::kDsr;
  if (wiped) node.dsr().wipeCaches();
  ++net_.metrics().faultNodeRecoveries;
  traceFault(telemetry::TraceEvent::kNodeRecover, id, wiped ? 1 : 0);
}

void FaultInjector::traceFault(telemetry::TraceEvent event, net::NodeId node,
                               std::int64_t detail) {
  telemetry::Tracer& tracer = net_.tracer();
  if (!tracer.enabled()) return;
  telemetry::TraceRecord r;
  r.at = sched().now();
  r.event = event;
  r.node = node;
  r.detail = detail;
  tracer.emit(r);
}

}  // namespace manet::fault
