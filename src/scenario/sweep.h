// Declarative experiment plans: every figure/table in Marina & Das is a
// grid of independent simulations (e.g. Fig. 1 sweeps static timeouts x
// strategies x mobility seeds). An ExperimentPlan names that grid once —
// axes with per-value config mutators over a base ScenarioConfig, plus
// named metric extractors — and the runner (src/scenario/runner.h)
// executes every (point x seed) cell as an independent task.
//
// Determinism contract: points() expands the cross product in a fixed
// order (first axis slowest, row-major) and derives a unique, filename-
// safe export label per point from the plan name and axis coordinates.
// Two points whose sanitized labels collide are a validate()-style hard
// error — silently overwriting another point's export artifact is exactly
// the bug runReplicated's old empty-label default allowed.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/scenario/table.h"
#include "src/util/stats.h"

namespace manet::scenario {

struct AggregateResult;  // experiment.h

/// One value of one axis: a display label plus the config mutation that
/// selects it.
struct AxisValue {
  std::string label;
  std::function<void(ScenarioConfig&)> apply;
};

/// A named experiment dimension.
struct Axis {
  std::string name;
  std::vector<AxisValue> values;
};

/// One cell of the expanded grid.
struct SweepPoint {
  std::size_t index = 0;                 // position in plan order
  std::vector<std::string> coordinates;  // one value label per axis
  std::string label;                     // unique filename-safe export label
  ScenarioConfig config;                 // base + every axis mutator applied
};

/// A named column derived from a point's aggregate (delivery fraction,
/// delay, ...), used by the table helpers below.
struct MetricColumn {
  std::string name;
  std::function<double(const AggregateResult&)> fn;
  int precision = 3;
};

/// Replace every character outside [A-Za-z0-9._-] with '_', so axis labels
/// compose into export file names.
std::string sanitizeLabel(std::string_view s);

class ExperimentPlan {
 public:
  ExperimentPlan(std::string name, ScenarioConfig base);

  /// Add an axis with explicit per-value mutators. Axes expand first-
  /// declared-slowest; value labels within one axis must be unique.
  /// Returns *this for chaining.
  ExperimentPlan& axis(std::string axisName, std::vector<AxisValue> values);

  /// Numeric convenience: one value per entry, labelled with fixed
  /// precision, mutator receives the numeric value.
  ExperimentPlan& axis(std::string axisName, const std::vector<double>& values,
                       const std::function<void(ScenarioConfig&, double)>& fn,
                       int labelPrecision = 2);

  /// Register a named metric column for the table helpers.
  ExperimentPlan& metric(std::string metricName,
                         std::function<double(const AggregateResult&)> fn,
                         int precision = 3);

  /// Keep only the values of axis `axisName` whose label equals `value`
  /// (bench CLI --filter axis=value). Unknown axis or no matching value is
  /// a hard error: a filter that silently matches nothing would turn a
  /// typo into an empty, "successful" sweep.
  ExperimentPlan& filter(const std::string& axisName,
                         const std::string& value);

  const std::string& name() const { return name_; }
  const ScenarioConfig& base() const { return base_; }
  const std::vector<Axis>& axes() const { return axes_; }
  const std::vector<MetricColumn>& metrics() const { return metrics_; }

  /// Points in the full cross product (at least one: a plan with no axes is
  /// a single point — plain seed replication).
  std::size_t pointCount() const;

  /// Expand the grid in deterministic plan order with derived labels.
  /// Calls validate() first.
  std::vector<SweepPoint> points() const;

  /// Fail fast on empty axes, duplicate value labels within an axis, or
  /// point-label collisions after sanitization. Throws
  /// std::invalid_argument with the offending names.
  void validate() const;

 private:
  /// Cross-product expansion; validate() reuses it with label checking off
  /// to avoid recursion.
  std::vector<SweepPoint> expand(bool checkLabels) const;

  std::string name_;
  ScenarioConfig base_;
  std::vector<Axis> axes_;
  std::vector<MetricColumn> metrics_;
};

}  // namespace manet::scenario
