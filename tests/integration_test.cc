/**
 * @file
 * Cross-module integration tests: attacker learning rounds against
 * the full data center, power-accounting invariants inside attack
 * windows, breaker-trip outages, and ablation trait overrides.
 */

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "sim/stats_registry.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"

namespace pad::core {
namespace {

using engine::ClusterEngine;

class IntegrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        trace::SyntheticTraceConfig tc;
        tc.machines = 220;
        tc.days = 2.0;
        events_ = new std::vector<trace::TaskEvent>(
            trace::SyntheticGoogleTrace(tc).generate());
        workload_ = new trace::Workload(*events_, tc.machines,
                                        2 * kTicksPerDay);
    }

    static void
    TearDownTestSuite()
    {
        delete workload_;
        delete events_;
        workload_ = nullptr;
        events_ = nullptr;
    }

    static DataCenterConfig
    config(SchemeKind scheme)
    {
        DataCenterConfig cfg;
        cfg.scheme = scheme;
        cfg.clusterBudgetFraction = 0.70;
        cfg.deb = defaultDebConfig(cfg.rackNameplate());
        return cfg;
    }

    static AttackScenario
    scenario(const ClusterEngine &dc, double durationSec)
    {
        AttackScenario sc;
        sc.targetPolicy = TargetPolicy::Fixed;
        sc.targetRack = rackByLoadPercentile(
            *workload_, dc.config(), dc.now(),
            dc.now() + kTicksPerHour, 85.0);
        sc.durationSec = durationSec;
        return sc;
    }

    static std::vector<trace::TaskEvent> *events_;
    static trace::Workload *workload_;
};

std::vector<trace::TaskEvent> *IntegrationTest::events_ = nullptr;
trace::Workload *IntegrationTest::workload_ = nullptr;

TEST_F(IntegrationTest, AttackerLearnsThroughCappingSideChannel)
{
    // Against a capping (PSPC) data center the attacker's Phase-I
    // drain produces an observable throttle: Phase II must begin
    // well before the maxDrain fallback.
    ClusterEngine dc(config(SchemeKind::PSPC), workload_);
    dc.runCoarseUntil(kTicksPerDay + 10 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    ac.prepareSec = 30.0;
    ac.maxDrainSec = 1500.0;
    attack::TwoPhaseAttacker attacker(ac);
    // The hottest rack: its drain excess is large enough that the
    // runtime-estimate capping fires well inside the window.
    auto sc = scenario(dc, 2000.0);
    sc.targetRack = rackByLoadPercentile(
        *workload_, dc.config(), dc.now(), dc.now() + kTicksPerHour,
        100.0);
    dc.runAttack(attacker, sc);
    ASSERT_EQ(attacker.phase(), attack::TwoPhaseAttacker::Phase::Spike);
    EXPECT_LT(attacker.phaseTwoStartSec(), 1500.0);
    EXPECT_GT(attacker.learnedAutonomySec(), 0.0);
    EXPECT_EQ(attacker.autonomySamples().size(), 1u);
}

TEST_F(IntegrationTest, MultiRoundLearningCollectsSamples)
{
    ClusterEngine dc(config(SchemeKind::PSPC), workload_);
    dc.runCoarseUntil(kTicksPerDay + 10 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    ac.prepareSec = 30.0;
    ac.maxDrainSec = 900.0;
    ac.learnRounds = 3;
    ac.recoverSec = 120.0;
    attack::TwoPhaseAttacker attacker(ac);
    dc.runAttack(attacker, scenario(dc, 4000.0));
    // All rounds completed (by signal or fallback) and at least the
    // first one yielded a measurement.
    EXPECT_EQ(attacker.phase(), attack::TwoPhaseAttacker::Phase::Spike);
    EXPECT_GE(attacker.autonomySamples().size(), 1u);
    EXPECT_LE(attacker.autonomySamples().size(), 3u);
}

TEST_F(IntegrationTest, AttackerRecoverPhaseGoesQuiet)
{
    attack::AttackerConfig ac;
    ac.prepareSec = 0.0;
    ac.learnRounds = 2;
    ac.recoverSec = 100.0;
    ac.cappingConfirmSec = 2.0;
    attack::TwoPhaseAttacker attacker(ac);
    attacker.advance(0.0);
    // Confirmed throttling ends round 1 -> Recover.
    attacker.observePerformance(10.0, 0.8, 1.0);
    attacker.observePerformance(11.0, 0.8, 1.0);
    ASSERT_EQ(attacker.phase(),
              attack::TwoPhaseAttacker::Phase::Recover);
    EXPECT_LT(attacker.demandedUtil(0, 15.0), 0.5);
    // After the pause the drain resumes.
    attacker.advance(120.0);
    EXPECT_EQ(attacker.phase(), attack::TwoPhaseAttacker::Phase::Drain);
    EXPECT_DOUBLE_EQ(attacker.demandedUtil(0, 121.0), 1.0);
}

TEST_F(IntegrationTest, DrawNeverExceedsDemand)
{
    // Batteries can only subtract power: utility draw <= demand at
    // every recorded control period, for every scheme.
    for (SchemeKind scheme :
         {SchemeKind::Conv, SchemeKind::PS, SchemeKind::Pad}) {
        ClusterEngine dc(config(scheme), workload_);
        dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        attack::TwoPhaseAttacker attacker(ac);
        const auto out = dc.runAttack(attacker, scenario(dc, 300.0));
        for (const auto &s : out.rackDraw.samples()) {
            EXPECT_LE(s.value, out.rackPower.valueAt(s.when) + 1e-6)
                << schemeName(scheme);
        }
    }
}

TEST_F(IntegrationTest, ConvDrawEqualsDemand)
{
    ClusterEngine dc(config(SchemeKind::Conv), workload_);
    dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
    attack::AttackerConfig ac;
    attack::TwoPhaseAttacker attacker(ac);
    const auto out = dc.runAttack(attacker, scenario(dc, 120.0));
    for (const auto &s : out.rackDraw.samples())
        EXPECT_NEAR(s.value, out.rackPower.valueAt(s.when), 1e-6);
}

TEST_F(IntegrationTest, BreakerTripCausesOutageAndThroughputLoss)
{
    // Force trips fast: a hair-trigger breaker on a Conv cluster
    // under full attack.
    DataCenterConfig cfg = config(SchemeKind::Conv);
    cfg.rackBreaker.thermalCapacity = 0.05;
    cfg.outageRecoverySec = 120.0;
    ClusterEngine dc(cfg, workload_);
    dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    ac.prepareSec = 5.0;
    attack::TwoPhaseAttacker attacker(ac);
    const auto out = dc.runAttack(attacker, scenario(dc, 600.0));
    ASSERT_NE(out.rack.firstTripTick(), kTickNever);
    // The dark rack loses benign work.
    EXPECT_LT(out.throughput, 0.999);
    // While dark, the victim's draw collapses.
    EXPECT_LT(out.rackDraw.minValue(), 100.0);
}

TEST_F(IntegrationTest, TraitsOverrideChangesBehaviour)
{
    // PSPC with sharing bolted on (no Table III scheme) must engage
    // the pool: the victim's own battery drains less than under
    // plain PSPC.
    DataCenterConfig plain = config(SchemeKind::PSPC);
    DataCenterConfig hybrid = config(SchemeKind::PSPC);
    hybrid.overrideTraits = true;
    hybrid.traits = schemeTraits(SchemeKind::PSPC);
    hybrid.traits.vdebSharing = true;

    auto run = [&](const DataCenterConfig &cfg) {
        ClusterEngine dc(cfg, workload_);
        dc.runCoarseUntil(kTicksPerDay + 10 * kTicksPerHour);
        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        attack::TwoPhaseAttacker attacker(ac);
        const auto sc = scenario(dc, 400.0);
        const auto out = dc.runAttack(attacker, sc);
        return out.rackSoc.lastValue();
    };
    EXPECT_GT(run(hybrid), run(plain));
}

TEST_F(IntegrationTest, MultiVictimAttackTracksWorstRack)
{
    ClusterEngine dc(config(SchemeKind::Conv), workload_);
    dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    ac.prepareSec = 5.0;
    attack::TwoPhaseAttacker attacker(ac);
    auto sc = scenario(dc, 300.0);
    // Add a couple of cooler extra victims.
    for (double pct : {60.0, 40.0}) {
        const int rack = rackByLoadPercentile(
            *workload_, dc.config(), dc.now(),
            dc.now() + kTicksPerHour, pct);
        if (rack != sc.targetRack)
            sc.extraVictimRacks.push_back(rack);
    }
    const auto out = dc.runAttack(attacker, sc);
    // The hot primary victim dominates the outcome: survival is no
    // longer than a single-victim attack on the same rack.
    EXPECT_LE(out.survivalSec, 300.0);
}

TEST_F(IntegrationTest, ShedServersRestartWhenDemandFits)
{
    DataCenterConfig cfg = config(SchemeKind::Pad);
    ClusterEngine dc(cfg, workload_);
    dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    attack::TwoPhaseAttacker attacker(ac);
    auto sc = scenario(dc, 900.0);
    dc.runAttack(attacker, sc);
    // Continue normal (coarse) operation after the attack: demand
    // drops and every shed server must come back.
    dc.runCoarseUntil(dc.now() + 2 * kTicksPerHour);
    sim::StatsRegistry stats;
    dc.exportStats(stats);
    EXPECT_EQ(stats.lookup("shed.active"), 0.0);
}

} // namespace
} // namespace pad::core
