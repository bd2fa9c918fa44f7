/**
 * @file
 * SoA backend tests: the backend selection API (names, the default,
 * makeClusterEngine for both DEB placements) and the SoA engine's
 * headline determinism guarantee — sharding the per-second demand refresh
 * across worker threads is bit-identical to its own serial execution,
 * for coarse operation and for the fine-grained attack loop alike.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "engine/backend.h"
#include "engine/soa_engine.h"
#include "runner/experiment.h"
#include "service/session.h"

using namespace pad;
using engine::BackendKind;

namespace {

// ---------------------------------------------------------------------
// Backend selection API
// ---------------------------------------------------------------------

TEST(EngineBackendApi, NamesRoundTrip)
{
    for (const BackendKind kind :
         {BackendKind::Optimized, BackendKind::Soa}) {
        const auto parsed =
            engine::backendFromName(engine::backendName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(engine::backendFromName("both").has_value());
    EXPECT_FALSE(engine::backendFromName("baseline").has_value());
    EXPECT_FALSE(engine::backendFromName("").has_value());
    EXPECT_FALSE(engine::backendFromName("SOA").has_value());
}

TEST(EngineBackendApi, DefaultBackendIsSoa)
{
    EXPECT_EQ(runner::Experiment{}.backend, BackendKind::Soa);
    EXPECT_EQ(service::ServiceConfig{}.backend, BackendKind::Soa);
}

TEST(EngineBackendApi, PlansSizeTheRun)
{
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    const runner::ClusterWorkload cw =
        runner::makeClusterWorkload(1.0);
    for (const BackendKind kind :
         {BackendKind::Optimized, BackendKind::Soa}) {
        const auto engine =
            engine::makeClusterEngine(kind, cfg, cw.workload.get());
        ASSERT_NE(engine, nullptr);
        // The engine sizes the run from the configuration.
        EXPECT_EQ(engine->config().racks, cfg.racks);
        EXPECT_EQ(engine->config().totalServers(),
                  cfg.racks * cfg.serversPerRack);
    }
}

TEST(EngineBackendApi, FactoriesBuildTheirKind)
{
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    const runner::ClusterWorkload cw =
        runner::makeClusterWorkload(1.0);
    for (const BackendKind kind :
         {BackendKind::Optimized, BackendKind::Soa}) {
        const auto engine =
            engine::makeClusterEngine(kind, cfg, cw.workload.get());
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->kind(), kind);
        EXPECT_EQ(engine->now(), 0);
        EXPECT_EQ(engine->allSocs().size(),
                  static_cast<std::size_t>(cfg.racks));
    }
}

TEST(EngineBackendApi, PerServerPlacementRunsOnSoa)
{
    core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    cfg.debPlacement =
        core::DataCenterConfig::DebPlacement::PerServer;
    const runner::ClusterWorkload cw =
        runner::makeClusterWorkload(1.0);

    // Per-server BBUs run on the engine that was asked for; there is
    // no fallback.
    for (const BackendKind kind :
         {BackendKind::Optimized, BackendKind::Soa}) {
        const auto engine =
            engine::makeClusterEngine(kind, cfg, cw.workload.get());
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->kind(), kind);
        EXPECT_EQ(engine->config().debPlacement,
                  core::DataCenterConfig::DebPlacement::PerServer);
        for (const double soc : engine->allSocs())
            EXPECT_DOUBLE_EQ(soc, 1.0);
        engine->setAllSoc(0.5);
        for (const double soc : engine->allSocs())
            EXPECT_NEAR(soc, 0.5, 1e-12);
    }
}

// ---------------------------------------------------------------------
// Sharded vs serial bit-identity
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

    static std::unique_ptr<engine::SoaEngine>
    makeEngine(int shards)
    {
        const core::DataCenterConfig cfg =
            runner::clusterConfig(core::SchemeKind::Pad);
        auto engine = std::make_unique<engine::SoaEngine>(
            cfg, workload_->workload.get());
        engine->setShards(shards);
        return engine;
    }

    static runner::ClusterWorkload *workload_;
};

runner::ClusterWorkload *SoaSharding::workload_ = nullptr;

TEST_F(SoaSharding, CoarseRunBitIdentical)
{
    auto serial = makeEngine(1);
    serial->setRecordHistory(true);
    serial->runCoarseUntil(12 * kTicksPerHour);

    for (const int shards : {2, 4, 7}) {
        auto sharded = makeEngine(shards);
        sharded->setRecordHistory(true);
        sharded->runCoarseUntil(12 * kTicksPerHour);
        EXPECT_EQ(sharded->allSocs(), serial->allSocs())
            << shards << " shards";
        EXPECT_EQ(sharded->socHistory(), serial->socHistory())
            << shards << " shards";
        EXPECT_EQ(sharded->shedHistory(), serial->shedHistory())
            << shards << " shards";
        EXPECT_EQ(sharded->socStdDevPercent(),
                  serial->socStdDevPercent())
            << shards << " shards";
    }
}

/** Warm up, attack, and capture everything comparable. */
struct AttackRun {
    core::AttackOutcome outcome;
    std::vector<double> socs;
    std::uint64_t detections = 0;
};

AttackRun
runShardedAttack(engine::SoaEngine &engine)
{
    engine.runCoarseUntil(kTicksPerDay +
                          static_cast<Tick>(11.0 * kTicksPerHour));
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    attack::TwoPhaseAttacker attacker(ac);
    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::MostVulnerable;
    sc.durationSec = 240.0;
    AttackRun run;
    run.outcome = engine.runAttack(attacker, sc);
    run.socs = engine.allSocs();
    run.detections = engine.detectionsFlagged();
    return run;
}

TEST_F(SoaSharding, AttackRunBitIdentical)
{
    auto serialEngine = makeEngine(1);
    const AttackRun serial = runShardedAttack(*serialEngine);

    for (const int shards : {3, 8}) {
        auto shardedEngine = makeEngine(shards);
        const AttackRun sharded = runShardedAttack(*shardedEngine);
        EXPECT_EQ(sharded.outcome.survivalSec,
                  serial.outcome.survivalSec)
            << shards << " shards";
        EXPECT_EQ(sharded.outcome.throughput,
                  serial.outcome.throughput)
            << shards << " shards";
        EXPECT_EQ(sharded.outcome.spikesLaunched,
                  serial.outcome.spikesLaunched)
            << shards << " shards";
        EXPECT_EQ(sharded.outcome.maxShedRatio,
                  serial.outcome.maxShedRatio)
            << shards << " shards";
        EXPECT_EQ(sharded.socs, serial.socs) << shards << " shards";
        EXPECT_EQ(sharded.detections, serial.detections)
            << shards << " shards";
    }
}

TEST_F(SoaSharding, ShardCountClampsToRacks)
{
    auto engine = makeEngine(10000);
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    EXPECT_LE(engine->shards(), cfg.racks);
    EXPECT_GE(engine->shards(), 1);
    // Even the clamped maximum stays bit-identical to serial.
    engine->runCoarseUntil(4 * kTicksPerHour);
    auto serial = makeEngine(1);
    serial->runCoarseUntil(4 * kTicksPerHour);
    EXPECT_EQ(engine->allSocs(), serial->allSocs());
}

// ---------------------------------------------------------------------
// setAllSoc: scenario setup applies uniformly
// ---------------------------------------------------------------------

TEST_F(SoaSharding, SetAllSocAppliesUniformly)
{
    auto engine = makeEngine(1);
    engine->setAllSoc(0.5);
    for (const double soc : engine->allSocs())
        EXPECT_NEAR(soc, 0.5, 1e-12);
    EXPECT_NEAR(engine->socStdDevPercent(), 0.0, 1e-9);
}

} // namespace
