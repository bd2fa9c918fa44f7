/**
 * @file
 * Unit tests for the time-series recorder.
 */

#include <vector>

#include <gtest/gtest.h>

#include "sim/time_series.h"

namespace pad::sim {
namespace {

TEST(TimeSeries, RecordsAndReduces)
{
    TimeSeries ts("sig");
    ts.record(0, 10.0);
    ts.record(10, 20.0);
    ts.record(20, 30.0);
    EXPECT_EQ(ts.size(), 3u);
    EXPECT_DOUBLE_EQ(ts.lastValue(), 30.0);
    EXPECT_DOUBLE_EQ(ts.maxValue(), 30.0);
    EXPECT_DOUBLE_EQ(ts.minValue(), 10.0);
    // Step interpolation: value holds until the next sample.
    EXPECT_DOUBLE_EQ(ts.valueAt(5), 10.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(10), 20.0);
    EXPECT_DOUBLE_EQ(ts.valueAt(999), 30.0);
}

TEST(TimeSeries, TimeWeightedMean)
{
    TimeSeries ts;
    ts.record(0, 100.0);
    ts.record(90, 200.0); // 100 held for 90 ticks
    ts.record(100, 300.0); // 200 held for 10 ticks
    EXPECT_NEAR(ts.timeWeightedMean(), (100.0 * 90 + 200.0 * 10) / 100.0,
                1e-9);
}

TEST(TimeSeries, ResampleFillsEmptyWindows)
{
    TimeSeries ts;
    ts.record(0, 1.0);
    ts.record(35, 5.0);
    const auto out = ts.resample(0, 40, 10);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_DOUBLE_EQ(out[0], 1.0);
    EXPECT_DOUBLE_EQ(out[1], 1.0); // carried forward
    EXPECT_DOUBLE_EQ(out[2], 1.0);
    EXPECT_DOUBLE_EQ(out[3], 5.0);
}

} // namespace
} // namespace pad::sim
