/**
 * @file
 * Unit tests for the stats registry, the key=value configuration
 * parser, and the cluster engine's stats export.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/config.h"
#include "engine/cluster_engine.h"
#include "sim/stats_registry.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/kv_config.h"

namespace pad {
namespace {

TEST(StatsRegistry, ScalarHandlesUpdateStorage)
{
    sim::StatsRegistry stats;
    auto counter = stats.registerScalar("a.count", "events");
    counter.inc();
    counter.add(2.0);
    EXPECT_DOUBLE_EQ(stats.lookup("a.count"), 3.0);
    counter.set(7.0);
    EXPECT_DOUBLE_EQ(counter.value(), 7.0);
    EXPECT_TRUE(stats.contains("a.count"));
    EXPECT_FALSE(stats.contains("a.missing"));
}

TEST(StatsRegistry, ReRegisteringSharesStorage)
{
    sim::StatsRegistry stats;
    auto a = stats.registerScalar("x", "first");
    auto b = stats.registerScalar("x", "second");
    a.add(1.0);
    b.add(1.0);
    EXPECT_DOUBLE_EQ(stats.lookup("x"), 2.0);
    EXPECT_EQ(stats.size(), 1u);
}

TEST(StatsRegistry, DumpRendersSortedWithDescriptions)
{
    sim::StatsRegistry stats;
    stats.registerScalar("b.second", "later").set(2.0);
    stats.registerScalar("a.first", "earlier").set(1.0);
    stats.setVector("c.vec", "a vector", {1.0, 2.5});
    std::ostringstream out;
    stats.dump(out);
    const std::string s = out.str();
    EXPECT_LT(s.find("a.first"), s.find("b.second"));
    EXPECT_NE(s.find("# earlier"), std::string::npos);
    EXPECT_NE(s.find("[1 2.5]"), std::string::npos);
}

TEST(StatsRegistry, ResetZeroesEverything)
{
    sim::StatsRegistry stats;
    auto x = stats.registerScalar("x", "");
    x.set(5.0);
    stats.setVector("v", "", {1.0});
    stats.reset();
    EXPECT_DOUBLE_EQ(stats.lookup("x"), 0.0);
}

TEST(KvConfig, ParsesTypesAndComments)
{
    const auto cfg = KvConfig::fromString(
        "# header comment\n"
        "scheme = PAD   # trailing comment\n"
        "nodes  = 4\n"
        "budget = 0.75\n"
        "quiet  = yes\n"
        "\n");
    EXPECT_EQ(cfg.getString("scheme"), "PAD");
    EXPECT_EQ(cfg.getInt("nodes", 0), 4);
    EXPECT_DOUBLE_EQ(cfg.getDouble("budget", 0.0), 0.75);
    EXPECT_TRUE(cfg.getBool("quiet", false));
    EXPECT_EQ(cfg.keys().size(), 4u);
}

TEST(KvConfig, FallbacksForMissingKeys)
{
    const auto cfg = KvConfig::fromString("a = 1\n");
    EXPECT_EQ(cfg.getString("missing", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 3.5), 3.5);
    EXPECT_EQ(cfg.getInt("missing", -2), -2);
    EXPECT_FALSE(cfg.getBool("missing", false));
    EXPECT_FALSE(cfg.has("missing"));
}

TEST(KvConfig, LaterAssignmentsWin)
{
    const auto cfg = KvConfig::fromString("k = 1\nk = 2\n");
    EXPECT_EQ(cfg.getInt("k", 0), 2);
}

TEST(KvConfig, SetOverrides)
{
    auto cfg = KvConfig::fromString("k = 1\n");
    cfg.set("k", "9");
    EXPECT_EQ(cfg.getInt("k", 0), 9);
}

TEST(DataCenterStats, DumpContainsFleetTelemetry)
{
    trace::SyntheticTraceConfig tc;
    tc.machines = 220;
    tc.days = 0.5;
    const auto events = trace::SyntheticGoogleTrace(tc).generate();
    trace::Workload workload(events, tc.machines, kTicksPerDay / 2);

    core::DataCenterConfig cfg;
    cfg.scheme = core::SchemeKind::PS;
    cfg.deb = core::defaultDebConfig(cfg.rackNameplate());
    engine::ClusterEngine dc(cfg, &workload);
    dc.runCoarseUntil(6 * kTicksPerHour);

    std::ostringstream out;
    dc.dumpStats(out);
    const std::string s = out.str();
    EXPECT_NE(s.find("perf.throughput"), std::string::npos);
    EXPECT_NE(s.find("deb.soc"), std::string::npos);
    EXPECT_NE(s.find("deb.lvd_trips"), std::string::npos);
    EXPECT_NE(s.find("breaker.trips"), std::string::npos);
    EXPECT_NE(s.find("sim.seconds"), std::string::npos);
}

} // namespace
} // namespace pad
