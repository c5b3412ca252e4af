#include "sim/stats.h"

#include <gtest/gtest.h>

namespace pdq::sim {
namespace {

TEST(TimeSeries, TimeAverageOfStepFunction) {
  TimeSeries ts;
  ts.record(0, 10.0);
  ts.record(50, 20.0);  // value 10 over [0,50), 20 over [50,100)
  EXPECT_DOUBLE_EQ(ts.time_average(0, 100), 15.0);
}

TEST(TimeSeries, TimeAverageWindowed) {
  TimeSeries ts;
  ts.record(0, 4.0);
  ts.record(100, 8.0);
  // Window entirely inside the first step.
  EXPECT_DOUBLE_EQ(ts.time_average(10, 60), 4.0);
  // Window starting before any sample sees 0 until the first sample.
  TimeSeries late;
  late.record(50, 6.0);
  EXPECT_DOUBLE_EQ(late.time_average(0, 100), 3.0);
}

TEST(TimeSeries, MaxValue) {
  TimeSeries ts;
  ts.record(1, 5.0);
  ts.record(2, 11.0);
  ts.record(3, 7.0);
  EXPECT_DOUBLE_EQ(ts.max_value(), 11.0);
}

TEST(RateMeter, UtilizationPerBin) {
  RateMeter m(kMillisecond, 1e9);  // 1 Gbps link, 1 ms bins
  // 125000 bytes = 1 ms at 1 Gbps -> utilization 1.0.
  m.on_bytes(0, 125'000);
  m.on_bytes(2 * kMillisecond + 1, 62'500);
  ASSERT_GE(m.num_bins(), 3u);
  EXPECT_NEAR(m.utilization(0), 1.0, 1e-9);
  EXPECT_NEAR(m.utilization(1), 0.0, 1e-9);
  EXPECT_NEAR(m.utilization(2), 0.5, 1e-9);
  EXPECT_NEAR(m.utilization(99), 0.0, 1e-9);  // out of range
}

}  // namespace
}  // namespace pdq::sim
