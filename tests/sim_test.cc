/**
 * @file
 * Unit tests for the discrete-event queue (ordering, cancellation,
 * rescheduling) and the time-series recorder.
 */

#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/time_series.h"

namespace pad::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30, [&] { fired.push_back(3); });
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(20, [&] { fired.push_back(2); });
    q.runUntil(100);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(5, [&] { fired.push_back(2); }, EventPriority::Observe);
    q.schedule(5, [&] { fired.push_back(0); }, EventPriority::Physical);
    q.schedule(5, [&] { fired.push_back(1); }, EventPriority::Physical);
    q.runUntil(5);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    int count = 0;
    auto h = q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.cancel(h);
    q.runUntil(100);
    EXPECT_EQ(count, 1);
    // Double-cancel and stale cancel are harmless.
    q.cancel(h);
    q.cancel(EventHandle{});
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(10, [&] {
        fired.push_back(q.now());
        q.schedule(15, [&] { fired.push_back(q.now()); });
    });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(11, [&] { ++count; });
    EXPECT_EQ(q.runUntil(10), 1u);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.nextEventTick(), 11);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.step());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTick(), kTickNever);
}

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
