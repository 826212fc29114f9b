// Online statistics helpers used by metrics collection and the benches.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace manet::util {

/// Welford online mean/variance accumulator with min/max tracking.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& o);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1); 0 if n < 2
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact quantile over a stored sample set (fine for per-run aggregates).
double quantile(std::vector<double> xs, double q);

}  // namespace manet::util
