#include "src/scenario/sweep.h"

#include <cstdio>
#include <set>
#include <stdexcept>
#include <utility>

namespace manet::scenario {

std::string sanitizeLabel(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out;
}

ExperimentPlan::ExperimentPlan(std::string name, ScenarioConfig base)
    : name_(std::move(name)), base_(std::move(base)) {}

ExperimentPlan& ExperimentPlan::axis(std::string axisName,
                                     std::vector<AxisValue> values) {
  axes_.push_back(Axis{std::move(axisName), std::move(values)});
  return *this;
}

ExperimentPlan& ExperimentPlan::axis(
    std::string axisName, const std::vector<double>& values,
    const std::function<void(ScenarioConfig&, double)>& fn,
    int labelPrecision) {
  std::vector<AxisValue> vals;
  vals.reserve(values.size());
  for (double v : values) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", labelPrecision, v);
    vals.push_back(AxisValue{buf, [fn, v](ScenarioConfig& c) { fn(c, v); }});
  }
  return axis(std::move(axisName), std::move(vals));
}

ExperimentPlan& ExperimentPlan::metric(
    std::string metricName, std::function<double(const AggregateResult&)> fn,
    int precision) {
  metrics_.push_back(
      MetricColumn{std::move(metricName), std::move(fn), precision});
  return *this;
}

ExperimentPlan& ExperimentPlan::filter(const std::string& axisName,
                                       const std::string& value) {
  for (Axis& a : axes_) {
    if (a.name != axisName) continue;
    std::vector<AxisValue> kept;
    for (AxisValue& v : a.values) {
      if (v.label == value) kept.push_back(std::move(v));
    }
    if (kept.empty()) {
      throw std::invalid_argument("experiment plan '" + name_ +
                                  "': --filter " + axisName + "=" + value +
                                  " matches no value of that axis");
    }
    a.values = std::move(kept);
    return *this;
  }
  throw std::invalid_argument("experiment plan '" + name_ +
                              "': --filter names unknown axis '" + axisName +
                              "'");
}

std::size_t ExperimentPlan::pointCount() const {
  std::size_t n = 1;
  for (const Axis& a : axes_) n *= a.values.size();
  return n;
}

void ExperimentPlan::validate() const {
  const auto fail = [this](const std::string& what) {
    throw std::invalid_argument("experiment plan '" + name_ + "': " + what);
  };
  if (name_.empty()) fail("plan name must be non-empty");
  for (const Axis& a : axes_) {
    if (a.name.empty()) fail("axis name must be non-empty");
    if (a.values.empty()) fail("axis '" + a.name + "' has no values");
    std::set<std::string> seen;
    for (const AxisValue& v : a.values) {
      if (v.label.empty()) fail("axis '" + a.name + "' has an empty label");
      if (!seen.insert(v.label).second) {
        fail("axis '" + a.name + "' repeats value label '" + v.label + "'");
      }
    }
  }
  // Label collisions after sanitization: two points must never export to
  // the same file (this is the hard-error fix for runReplicated's silent
  // "<exportDir>/run.json" clobbering).
  std::set<std::string> labels;
  for (const SweepPoint& p : expand(/*checkLabels=*/false)) {
    if (!labels.insert(p.label).second) {
      fail("sanitized export label '" + p.label +
           "' names two different sweep points; make axis value labels "
           "distinguishable after [A-Za-z0-9._-] sanitization");
    }
  }
}

std::vector<SweepPoint> ExperimentPlan::expand(bool checkLabels) const {
  if (checkLabels) validate();
  std::vector<SweepPoint> out;
  const std::size_t total = pointCount();
  out.reserve(total);
  std::vector<std::size_t> idx(axes_.size(), 0);
  for (std::size_t i = 0; i < total; ++i) {
    SweepPoint p;
    p.index = i;
    p.config = base_;
    std::string label = sanitizeLabel(name_);
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const AxisValue& v = axes_[a].values[idx[a]];
      p.coordinates.push_back(v.label);
      if (v.apply) v.apply(p.config);
      label += '_';
      label += sanitizeLabel(axes_[a].name);
      label += '=';
      label += sanitizeLabel(v.label);
    }
    p.label = std::move(label);
    out.push_back(std::move(p));
    // Row-major increment: last axis fastest.
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++idx[a] < axes_[a].values.size()) break;
      idx[a] = 0;
    }
  }
  return out;
}

std::vector<SweepPoint> ExperimentPlan::points() const {
  return expand(/*checkLabels=*/true);
}

}  // namespace manet::scenario
