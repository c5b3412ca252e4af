// Small statistics helpers: time series and rate meters.
//
// Ownership: plain value types; they copy their samples and have no link
// back into the simulator. Units: TimeSeries/RateMeter timestamps are
// integer nanoseconds (sim::Time), RateMeter rates are bits-per-second
// (bps), byte counts are std::int64_t bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace pdq::sim {

/// (time, value) samples, e.g. queue length or link utilization over time.
class TimeSeries {
 public:
  void record(Time t, double v) { points_.push_back({t, v}); }

  struct Point {
    Time t;
    double v;
  };
  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Average value over [from, to] treating the series as a step function
  /// (each sample holds until the next one).
  double time_average(Time from, Time to) const {
    if (points_.empty() || to <= from) return 0.0;
    double area = 0;
    double last_v = 0;
    Time last_t = from;
    for (const auto& p : points_) {
      if (p.t < from) {
        last_v = p.v;
        continue;
      }
      if (p.t > to) break;
      area += last_v * static_cast<double>(p.t - last_t);
      last_t = p.t;
      last_v = p.v;
    }
    area += last_v * static_cast<double>(to - last_t);
    return area / static_cast<double>(to - from);
  }

  double max_value() const {
    double m = 0;
    for (const auto& p : points_) m = std::max(m, p.v);
    return m;
  }

 private:
  std::vector<Point> points_;
};

/// Counts bytes over fixed bins; utilization per bin = bytes*8 / (rate*bin).
class RateMeter {
 public:
  RateMeter(Time bin, double rate_bps) : bin_(bin), rate_bps_(rate_bps) {}

  void on_bytes(Time t, std::int64_t bytes) {
    const auto idx = static_cast<std::size_t>(t / bin_);
    if (bins_.size() <= idx) bins_.resize(idx + 1, 0);
    bins_[idx] += bytes;
  }

  /// Utilization of bin i in [0, 1+] (can exceed 1 transiently when a packet
  /// finishing in this bin was mostly transmitted in the previous one).
  double utilization(std::size_t i) const {
    if (i >= bins_.size()) return 0.0;
    return static_cast<double>(bins_[i]) * 8.0 /
           (rate_bps_ * to_seconds(bin_));
  }

  std::size_t num_bins() const { return bins_.size(); }
  Time bin_width() const { return bin_; }

 private:
  Time bin_;
  double rate_bps_;
  std::vector<std::int64_t> bins_;
};

}  // namespace pdq::sim
