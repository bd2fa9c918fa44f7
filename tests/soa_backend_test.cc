/**
 * @file
 * Cluster engine construction and shared-workload tests: the factory
 * the repository benchmark still calls (engine/backend.h) builds the
 * one engine for both DEB placements, and coarse demand read from the
 * workload's shared curve table is exactly the per-server power model
 * — under either curve exponent and under concurrent runs.
 */

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/backend.h"
#include "engine/cluster_engine.h"
#include "power/server_power_model.h"
#include "runner/experiment.h"
#include "telemetry/hub.h"
#include "trace/workload.h"

using namespace pad;
using engine::BackendKind;

namespace {

// ---------------------------------------------------------------------
// The benchmark's factory shim
// ---------------------------------------------------------------------

TEST(EngineBackendApi, DefaultBackendIsSoa)
{
    EXPECT_EQ(runner::Experiment{}.backend, BackendKind::Soa);
}

TEST(EngineBackendApi, PlansSizeTheRun)
{
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    const runner::ClusterWorkload cw =
        runner::makeClusterWorkload(1.0);
    const auto engine = engine::makeClusterEngine(BackendKind::Soa, cfg,
                                                  cw.workload.get());
    ASSERT_NE(engine, nullptr);
    // The engine sizes the run from the configuration.
    EXPECT_EQ(engine->config().racks, cfg.racks);
    EXPECT_EQ(engine->config().totalServers(),
              cfg.racks * cfg.serversPerRack);
}

TEST(EngineBackendApi, FactoriesBuildTheirKind)
{
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    const runner::ClusterWorkload cw =
        runner::makeClusterWorkload(1.0);
    const auto engine = engine::makeClusterEngine(BackendKind::Soa, cfg,
                                                  cw.workload.get());
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->now(), 0);
    EXPECT_EQ(engine->allSocs().size(),
              static_cast<std::size_t>(cfg.racks));
}

TEST(EngineBackendApi, PerServerPlacementRunsOnSoa)
{
    core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    cfg.debPlacement =
        core::DataCenterConfig::DebPlacement::PerServer;
    const runner::ClusterWorkload cw =
        runner::makeClusterWorkload(1.0);

    // Per-server BBUs run on the one engine; there is no fallback.
    const auto engine = engine::makeClusterEngine(BackendKind::Soa, cfg,
                                                  cw.workload.get());
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->config().debPlacement,
              core::DataCenterConfig::DebPlacement::PerServer);
    for (const double soc : engine->allSocs())
        EXPECT_DOUBLE_EQ(soc, 1.0);
    engine->setAllSoc(0.5);
    for (const double soc : engine->allSocs())
        EXPECT_NEAR(soc, 0.5, 1e-12);
}

// ---------------------------------------------------------------------
// Engine on a shared workload
// ---------------------------------------------------------------------

class SoaSharding : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workload_ = new runner::ClusterWorkload(
            runner::makeClusterWorkload(2.0));
    }

    static void
    TearDownTestSuite()
    {
        delete workload_;
        workload_ = nullptr;
    }

    static std::unique_ptr<engine::ClusterEngine>
    makeEngine()
    {
        const core::DataCenterConfig cfg =
            runner::clusterConfig(core::SchemeKind::Pad);
        return std::make_unique<engine::ClusterEngine>(
            cfg, workload_->workload.get());
    }

    static runner::ClusterWorkload *workload_;
};

runner::ClusterWorkload *SoaSharding::workload_ = nullptr;

// ---------------------------------------------------------------------
// setAllSoc: scenario setup applies uniformly
// ---------------------------------------------------------------------

TEST_F(SoaSharding, SetAllSocAppliesUniformly)
{
    auto engine = makeEngine();
    engine->setAllSoc(0.5);
    for (const double soc : engine->allSocs())
        EXPECT_NEAR(soc, 0.5, 1e-12);
    EXPECT_NEAR(engine->socStdDevPercent(), 0.0, 1e-9);
}

// ---------------------------------------------------------------------
// Coarse demand from the workload's curve table
// ---------------------------------------------------------------------

/**
 * Every recorded rack<r>.power of an 8 h coarse run, against the
 * rack's servers' ServerPowerModel::power summed by hand in server
 * order (no DVFS cap or shed server occurs in this window).
 */
void
expectRackPowerSummedByHand(const core::DataCenterConfig &cfg,
                            const trace::Workload &workload)
{
    engine::ClusterEngine engine(cfg, &workload);
    telemetry::TelemetryHub hub;
    engine.setTelemetry(&hub);
    engine.runCoarseUntil(8 * kTicksPerHour);
    const power::ServerPowerModel model(cfg.server);
    for (int r = 0; r < cfg.racks; ++r) {
        const telemetry::TimeSeries *series =
            hub.find("rack" + std::to_string(r) + ".power");
        ASSERT_NE(series, nullptr);
        ASSERT_EQ(series->totalSamples(), 96u);
        for (const telemetry::Sample &sample : series->raw()) {
            const std::size_t slot = workload.slotAt(sample.when);
            double expected = 0.0;
            for (int s = 0; s < cfg.serversPerRack; ++s)
                expected += model.power(workload.utilAtSlot(
                    r * cfg.serversPerRack + s, slot));
            ASSERT_EQ(sample.value, expected)
                << "rack " << r << " tick " << sample.when;
        }
    }
}

TEST(CurveTable, DefaultExponentReadsTheTable)
{
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(1.0);
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    ASSERT_EQ(cfg.server.curveExponent, trace::kTableCurveExponent);
    expectRackPowerSummedByHand(cfg, *cw.workload);
}

TEST(CurveTable, OtherExponentTakesThePowFallback)
{
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(1.0);
    core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    cfg.server.curveExponent = 0.9;
    // The table serves only its own exponent ...
    EXPECT_EQ(cw.workload->curveColumn(0, 0.9), nullptr);
    // ... so the engine computes the 0.9 curve itself, exactly.
    expectRackPowerSummedByHand(cfg, *cw.workload);
}

TEST(CurveTable, ConcurrentCoarseRunsMatchSerial)
{
    // Two engines race to fill the curve columns of one fresh shared
    // workload (the SweepRunner case); a run on a workload of its own
    // is the reference. Run under TSan, this is the race check.
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    const auto coarseHistory = [&](const trace::Workload *workload) {
        engine::ClusterEngine engine(cfg, workload);
        engine.setRecordHistory(true);
        engine.runCoarseUntil(kTicksPerDay);
        return engine.socHistory();
    };
    const runner::ClusterWorkload own = runner::makeClusterWorkload(1.0);
    const auto serial = coarseHistory(own.workload.get());

    const runner::ClusterWorkload shared =
        runner::makeClusterWorkload(1.0);
    std::vector<std::vector<double>> histories[2];
    std::thread a([&] { histories[0] = coarseHistory(shared.workload.get()); });
    std::thread b([&] { histories[1] = coarseHistory(shared.workload.get()); });
    a.join();
    b.join();
    ASSERT_EQ(serial.size(), 288u);
    EXPECT_EQ(histories[0], serial);
    EXPECT_EQ(histories[1], serial);
}

} // namespace
