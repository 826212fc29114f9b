#include "src/fault/fault_plan.h"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace manet::fault {

const char* toString(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeCrash:
      return "node_crash";
    case FaultKind::kNodeRecover:
      return "node_recover";
  }
  return "unknown";
}

bool FaultPlan::empty() const {
  return scripted.empty() && churn.fraction == 0.0;
}

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("fault plan: " + what);
}

void validateEvent(const FaultEvent& ev, std::size_t index, int numNodes) {
  const std::string where =
      "scripted event #" + std::to_string(index) + " (" + toString(ev.kind) +
      "): ";
  if (ev.at < sim::Time::zero()) fail(where + "`at` must be >= 0");
  if (ev.node >= static_cast<net::NodeId>(numNodes)) {
    fail(where + "node " + std::to_string(ev.node) + " out of range (have " +
         std::to_string(numNodes) + " nodes)");
  }
}

}  // namespace

void FaultPlan::validate(int numNodes, sim::Time horizon) const {
  if (horizon <= sim::Time::zero()) fail("scenario horizon must be > 0");
  if (churn.fraction < 0.0 || churn.fraction > 1.0) {
    fail("churn.fraction must be in [0, 1], got " +
         std::to_string(churn.fraction));
  }
  if (churn.fraction > 0.0) {
    if (churn.meanUpTimeSec <= 0.0) {
      fail("churn.meanUpTimeSec must be > 0 when churn is enabled");
    }
    if (churn.meanDownTimeSec <= 0.0) {
      fail("churn.meanDownTimeSec must be > 0 when churn is enabled");
    }
  }
  for (std::size_t i = 0; i < scripted.size(); ++i) {
    validateEvent(scripted[i], i, numNodes);
  }
}

namespace {

/// Parse a positive double from `name`; unset/unparsable leaves `out`.
void envDouble(const char* name, double& out) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  if (v == nullptr || v[0] == '\0') return;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end != v) out = d;
}

void envBool(const char* name, bool& out) {
  if (const char* v = std::getenv(name); v != nullptr && v[0] != '\0') {  // NOLINT(concurrency-mt-unsafe)
    out = v[0] == '1';
  }
}

}  // namespace

FaultPlan FaultPlan::fromEnv() { return fromEnv(FaultPlan{}); }

FaultPlan FaultPlan::fromEnv(FaultPlan base) {
  envDouble("MANET_FAULT_CHURN_FRACTION", base.churn.fraction);
  envDouble("MANET_FAULT_CHURN_UP", base.churn.meanUpTimeSec);
  envDouble("MANET_FAULT_CHURN_DOWN", base.churn.meanDownTimeSec);
  envBool("MANET_FAULT_CHURN_WIPE", base.churn.wipeCachesOnRecovery);
  if (const char* v = std::getenv("MANET_FAULT_SEED");  // NOLINT(concurrency-mt-unsafe)
      v != nullptr && v[0] != '\0') {
    base.seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
  }
  return base;
}

}  // namespace manet::fault
