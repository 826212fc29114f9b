// Simulation time as integer nanoseconds.
//
// Integer time keeps event ordering exact (no floating-point drift) and makes
// same-seed runs bit-reproducible, which the paper's methodology (identical
// scenarios across protocol variants) depends on.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace manet::sim {

/// A point in simulated time or a duration, with nanosecond resolution.
class Time {
 public:
  constexpr Time() = default;

  static constexpr Time nanos(std::int64_t v) { return Time(v); }
  static constexpr Time micros(std::int64_t v) { return Time(v * 1'000); }
  static constexpr Time millis(std::int64_t v) { return Time(v * 1'000'000); }
  static constexpr Time seconds(std::int64_t v) {
    return Time(v * 1'000'000'000);
  }
  /// Fractional seconds (e.g. packet transmission times).
  static constexpr Time fromSeconds(double s) {
    return Time(static_cast<std::int64_t>(s * 1e9));
  }
  static constexpr Time max() {
    return Time(std::numeric_limits<std::int64_t>::max());
  }
  static constexpr Time min() {
    return Time(std::numeric_limits<std::int64_t>::min());
  }
  static constexpr Time zero() { return Time(0); }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double toSeconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr friend auto operator<=>(Time, Time) = default;
  constexpr Time operator+(Time o) const { return Time(ns_ + o.ns_); }
  constexpr Time operator-(Time o) const { return Time(ns_ - o.ns_); }
  constexpr Time& operator+=(Time o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr Time& operator-=(Time o) {
    ns_ -= o.ns_;
    return *this;
  }
  /// Scale a duration (used for timeout heuristics such as alpha * lifetime).
  constexpr Time operator*(double s) const {
    return Time(static_cast<std::int64_t>(static_cast<double>(ns_) * s));
  }

  std::string str() const { return std::to_string(toSeconds()) + "s"; }

 private:
  constexpr explicit Time(std::int64_t v) : ns_(v) {}
  std::int64_t ns_ = 0;
};

}  // namespace manet::sim
