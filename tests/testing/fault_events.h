// Scripted fault events for tests: crash or recover one node at a set time.
#pragma once

#include "src/fault/fault_plan.h"

namespace manet::testing {

inline fault::FaultEvent crashAt(sim::Time at, net::NodeId node) {
  fault::FaultEvent ev;
  ev.kind = fault::FaultKind::kNodeCrash;
  ev.at = at;
  ev.node = node;
  return ev;
}

inline fault::FaultEvent recoverAt(sim::Time at, net::NodeId node) {
  fault::FaultEvent ev = crashAt(at, node);
  ev.kind = fault::FaultKind::kNodeRecover;
  return ev;
}

}  // namespace manet::testing
