/**
 * @file
 * Unit tests for the trace substrate: CSV round-trip, the synthetic
 * Google-style generator's statistical properties, and the workload
 * utilization grid.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "trace/google_trace.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "runner/experiment.h"

namespace pad::trace {
namespace {

class TempFile
{
  public:
    TempFile()
    {
        char buf[] = "/tmp/pad_trace_XXXXXX";
        const int fd = mkstemp(buf);
        EXPECT_GE(fd, 0);
        ::close(fd);
        path_ = buf;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(GoogleTrace, CsvRoundTrip)
{
    std::vector<TaskEvent> events;
    events.push_back(TaskEvent{0, 300 * kTicksPerSecond, 3, 0.25});
    events.push_back(
        TaskEvent{600 * kTicksPerSecond, 900 * kTicksPerSecond, 7, 0.5});
    TempFile file;
    writeTaskTraceCsv(file.path(), events);
    const auto loaded = readTaskTraceCsv(file.path());
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].start, events[0].start);
    EXPECT_EQ(loaded[0].end, events[0].end);
    EXPECT_EQ(loaded[0].machine, 3);
    EXPECT_NEAR(loaded[0].cpuRate, 0.25, 1e-6);
    EXPECT_EQ(loaded[1].machine, 7);
}

TEST(GoogleTrace, ReaderSortsAndSkipsComments)
{
    TempFile file;
    {
        std::ofstream out(file.path());
        out << "# a comment\n";
        out << "start_seconds,end_seconds,machine_id,cpu_rate\n";
        out << "600,900,1,0.1\n";
        out << "0,300,2,0.2\n";
    }
    const auto loaded = readTaskTraceCsv(file.path());
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].machine, 2); // earliest start first
}

TEST(TaskEvent, ActiveAtAndDuration)
{
    TaskEvent ev{100, 200, 0, 0.5};
    EXPECT_EQ(ev.duration(), 100);
    EXPECT_TRUE(ev.activeAt(100));
    EXPECT_TRUE(ev.activeAt(199));
    EXPECT_FALSE(ev.activeAt(200));
    EXPECT_FALSE(ev.activeAt(99));
}

TEST(SyntheticTrace, DeterministicForSameSeed)
{
    SyntheticTraceConfig cfg;
    cfg.machines = 20;
    cfg.days = 0.5;
    const auto a = SyntheticGoogleTrace(cfg).generate();
    const auto b = SyntheticGoogleTrace(cfg).generate();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].machine, b[i].machine);
        EXPECT_DOUBLE_EQ(a[i].cpuRate, b[i].cpuRate);
    }
}

TEST(SyntheticTrace, DifferentSeedsDiffer)
{
    SyntheticTraceConfig cfg;
    cfg.machines = 20;
    cfg.days = 0.5;
    const auto a = SyntheticGoogleTrace(cfg).generate();
    cfg.seed = 777;
    const auto b = SyntheticGoogleTrace(cfg).generate();
    EXPECT_NE(a.size(), b.size());
}

TEST(SyntheticTrace, MeanUtilizationInPlausibleBand)
{
    SyntheticTraceConfig cfg;
    cfg.machines = 220;
    cfg.days = 2.0;
    const auto events = SyntheticGoogleTrace(cfg).generate();
    Workload w(events, cfg.machines,
               static_cast<Tick>(cfg.days * kTicksPerDay));
    // Calibrated for a Google-2010-like cluster: ~15-30% mean CPU.
    EXPECT_GT(w.overallMeanUtil(), 0.12);
    EXPECT_LT(w.overallMeanUtil(), 0.32);
}

TEST(SyntheticTrace, DiurnalPatternPresent)
{
    SyntheticTraceConfig cfg;
    cfg.machines = 100;
    cfg.days = 3.0;
    const auto events = SyntheticGoogleTrace(cfg).generate();
    Workload w(events, cfg.machines,
               static_cast<Tick>(cfg.days * kTicksPerDay));
    // Afternoon (day 2, 14h) should be busier than pre-dawn (4h).
    const double peak =
        w.clusterUtilAt(kTicksPerDay + 14 * kTicksPerHour);
    const double trough =
        w.clusterUtilAt(kTicksPerDay + 4 * kTicksPerHour);
    EXPECT_GT(peak, trough * 1.3);
}

TEST(SyntheticTrace, SurgeInjectionRaisesLoad)
{
    SyntheticTraceConfig cfg;
    cfg.machines = 50;
    cfg.days = 1.0;
    cfg.surgePeriodHours = 6.0;
    cfg.surgeDurationMin = 30.0;
    cfg.surgeCpuRate = 0.4;
    const auto events = SyntheticGoogleTrace(cfg).generate();
    Workload w(events, cfg.machines, kTicksPerDay);
    // Mid-surge vs just before the surge window.
    const Tick surge = 6 * kTicksPerHour + 10 * kTicksPerMinute;
    const Tick before = 6 * kTicksPerHour - 20 * kTicksPerMinute;
    EXPECT_GT(w.clusterUtilAt(surge), w.clusterUtilAt(before) + 0.2);
}

TEST(Workload, GridAccumulatesOverlappingTasks)
{
    std::vector<TaskEvent> events;
    events.push_back(TaskEvent{0, kTraceSlotTicks, 0, 0.3});
    events.push_back(TaskEvent{0, kTraceSlotTicks, 0, 0.4});
    Workload w(events, 2, kTraceSlotTicks);
    EXPECT_NEAR(w.utilAt(0, 0), 0.7, 1e-9);
    EXPECT_NEAR(w.utilAt(1, 0), 0.0, 1e-9);
}

TEST(Workload, UtilizationClampedAtOne)
{
    std::vector<TaskEvent> events;
    for (int i = 0; i < 10; ++i)
        events.push_back(TaskEvent{0, kTraceSlotTicks, 0, 0.5});
    Workload w(events, 1, kTraceSlotTicks);
    EXPECT_DOUBLE_EQ(w.utilAt(0, 0), 1.0);
}

TEST(Workload, PartialSlotOverlapProRated)
{
    std::vector<TaskEvent> events;
    // Task covers exactly half of slot 0.
    events.push_back(TaskEvent{0, kTraceSlotTicks / 2, 0, 0.8});
    Workload w(events, 1, kTraceSlotTicks);
    EXPECT_NEAR(w.utilAt(0, 0), 0.4, 1e-9);
}

TEST(Workload, OutOfRangeMachinesDropped)
{
    std::vector<TaskEvent> events;
    events.push_back(TaskEvent{0, kTraceSlotTicks, 99, 0.5});
    events.push_back(TaskEvent{0, kTraceSlotTicks, 0, 0.5});
    Workload w(events, 2, kTraceSlotTicks);
    EXPECT_NEAR(w.utilAt(0, 0), 0.5, 1e-9);
}

TEST(Workload, FineJitterDeterministicAndBounded)
{
    std::vector<TaskEvent> events;
    events.push_back(TaskEvent{0, kTraceSlotTicks, 0, 0.4});
    Workload w(events, 1, kTraceSlotTicks);
    const double a = w.utilFine(0, 12345, 0.15);
    const double b = w.utilFine(0, 12345, 0.15);
    EXPECT_DOUBLE_EQ(a, b);
    // Bounded by the relative amplitude.
    for (Tick t = 0; t < kTraceSlotTicks; t += kTicksPerSecond) {
        const double v = w.utilFine(0, t, 0.15);
        EXPECT_GE(v, 0.4 * 0.85 - 1e-9);
        EXPECT_LE(v, 0.4 * 1.15 + 1e-9);
    }
}

TEST(Workload, FineJitterVariesAcrossSecondsNotWithin)
{
    std::vector<TaskEvent> events;
    events.push_back(TaskEvent{0, kTraceSlotTicks, 0, 0.4});
    Workload w(events, 1, kTraceSlotTicks);
    // Same second, different milliseconds: identical.
    EXPECT_DOUBLE_EQ(w.utilFine(0, 5000), w.utilFine(0, 5999));
    // Different seconds: almost surely different.
    bool varied = false;
    for (int s = 0; s < 10 && !varied; ++s)
        varied = w.utilFine(0, s * 1000) != w.utilFine(0, (s + 1) * 1000);
    EXPECT_TRUE(varied);
}

TEST(Workload, MachineMeanAndOverallMean)
{
    std::vector<TaskEvent> events;
    events.push_back(TaskEvent{0, 2 * kTraceSlotTicks, 0, 0.5});
    Workload w(events, 2, 2 * kTraceSlotTicks);
    EXPECT_NEAR(w.machineMeanUtil(0), 0.5, 1e-9);
    EXPECT_NEAR(w.machineMeanUtil(1), 0.0, 1e-9);
    EXPECT_NEAR(w.overallMeanUtil(), 0.25, 1e-9);
}

/** FNV-1a over the bit pattern of @p v, chained from @p hash. */
std::uint64_t
bitHash(std::uint64_t hash, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        hash ^= (bits >> (8 * i)) & 0xffu;
        hash *= 1099511628211ull;
    }
    return hash;
}

TEST(Workload, QueriesBitIdenticalToMachineMajorGrid)
{
    // Digest of every query over the 3-day cluster workload, captured
    // while the grid was stored machine-major: the storage layout
    // must not change a single bit of what the queries return.
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(3.0);
    const Workload &w = *cw.workload;
    std::uint64_t cells = 14695981039346656037ull;
    for (int m = 0; m < w.machines(); ++m)
        for (std::size_t s = 0; s < w.slots(); ++s)
            cells = bitHash(cells, w.utilAtSlot(m, s));
    std::uint64_t means = 14695981039346656037ull;
    for (int m = 0; m < w.machines(); ++m)
        means = bitHash(means, w.machineMeanUtil(m));
    means = bitHash(means, w.overallMeanUtil());
    std::uint64_t cluster = 14695981039346656037ull;
    for (std::size_t s = 0; s < w.slots(); ++s)
        cluster = bitHash(
            cluster, w.clusterUtilAt(static_cast<Tick>(s) * w.slotTicks() +
                                     w.slotTicks() / 2));
    EXPECT_EQ(cells, 0x89ffbd2af980301dull) << std::hex << cells;
    EXPECT_EQ(means, 0x0aa70534d8b3d5baull) << std::hex << means;
    EXPECT_EQ(cluster, 0xa363035dc7d4129bull) << std::hex << cluster;
}

TEST(Workload, SlotColumnIsTheSlotsMachines)
{
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(1.0);
    const Workload &w = *cw.workload;
    for (std::size_t s = 0; s < w.slots(); s += 37) {
        const double *column = w.slotColumn(s);
        for (int m = 0; m < w.machines(); ++m)
            ASSERT_EQ(column[m], w.utilAtSlot(m, s));
    }
}

TEST(Workload, CurveColumnsArePowBitForBit)
{
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(3.0);
    const Workload &w = *cw.workload;
    for (std::size_t s = 0; s < w.slots(); ++s) {
        const double *curve = w.curveColumn(s, kTableCurveExponent);
        ASSERT_NE(curve, nullptr);
        // A second request returns the same filled column.
        ASSERT_EQ(w.curveColumn(s, kTableCurveExponent), curve);
        for (int m = 0; m < w.machines(); ++m)
            ASSERT_EQ(curve[m],
                      std::pow(std::clamp(w.utilAtSlot(m, s), 0.0, 1.0),
                               kTableCurveExponent))
                << "machine " << m << " slot " << s;
    }
    // Any other exponent is left to the caller.
    EXPECT_EQ(w.curveColumn(0, 0.9), nullptr);
    EXPECT_EQ(w.curveColumn(0, 1.0), nullptr);
}

} // namespace
} // namespace pad::trace
