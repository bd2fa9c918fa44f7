/**
 * @file
 * Integration tests for the full data-center simulation: normal
 * operation stays within budget, batteries engage at peaks, charge
 * policies differ, and attack outcomes order the schemes the way the
 * paper's evaluation does.
 */

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"

namespace pad::core {
namespace {

using engine::ClusterEngine;

/** Shared fixture: one synthetic workload reused across tests. */
class DataCenterTest : public ::testing::Test
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
        workload_ = new trace::Workload(
            *events_, tc.machines,
            static_cast<Tick>(tc.days * kTicksPerDay));
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
    baseConfig(SchemeKind scheme)
    {
        DataCenterConfig cfg;
        cfg.scheme = scheme;
        cfg.deb = defaultDebConfig(cfg.rackNameplate());
        return cfg;
    }

    static AttackScenario
    scenario(const ClusterEngine &dc, double durationSec = 1200.0)
    {
        AttackScenario sc;
        sc.targetPolicy = TargetPolicy::Fixed;
        sc.targetRack = rackByLoadPercentile(
            *workload_, dc.config(), dc.now(), dc.now() + kTicksPerHour,
            80.0);
        sc.durationSec = durationSec;
        return sc;
    }

    static std::vector<trace::TaskEvent> *events_;
    static trace::Workload *workload_;
};

std::vector<trace::TaskEvent> *DataCenterTest::events_ = nullptr;
trace::Workload *DataCenterTest::workload_ = nullptr;

TEST_F(DataCenterTest, NormalOperationKeepsBatteriesMostlyCharged)
{
    ClusterEngine dc(baseConfig(SchemeKind::PS), workload_);
    dc.runCoarseUntil(kTicksPerDay);
    const auto socs = dc.allSocs();
    int healthy = 0;
    for (double s : socs)
        healthy += s > 0.5;
    // The large majority of racks never discharge deeply in a day.
    EXPECT_GE(healthy, static_cast<int>(socs.size()) - 4);
}

TEST_F(DataCenterTest, ConvNeverTouchesBatteries)
{
    ClusterEngine dc(baseConfig(SchemeKind::Conv), workload_);
    dc.runCoarseUntil(kTicksPerDay);
    for (double s : dc.allSocs())
        EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST_F(DataCenterTest, PeakShavingDrainsHotRacks)
{
    ClusterEngine dc(baseConfig(SchemeKind::PS), workload_);
    // Sample at the diurnal peak: overnight trickle charging would
    // otherwise have refilled the cabinets.
    dc.runCoarseUntil(15 * kTicksPerHour);
    double minSoc = 1.0;
    for (double s : dc.allSocs())
        minSoc = std::min(minSoc, s);
    // At least one rack had to shave its diurnal peak.
    EXPECT_LT(minSoc, 0.999);
}

TEST_F(DataCenterTest, VdebBalancesBatteryUsage)
{
    auto psCfg = baseConfig(SchemeKind::PS);
    auto vdCfg = baseConfig(SchemeKind::VdebOnly);
    ClusterEngine ps(psCfg, workload_);
    ClusterEngine vd(vdCfg, workload_);
    ps.runCoarseUntil(kTicksPerDay);
    vd.runCoarseUntil(kTicksPerDay);
    // Load sharing spreads discharge: the across-rack SOC variation
    // shrinks, which is exactly Fig. 13's claim.
    EXPECT_LE(vd.socStdDevPercent(), ps.socStdDevPercent() + 1e-9);
}

TEST_F(DataCenterTest, OfflineChargingIncreasesSocVariation)
{
    auto onCfg = baseConfig(SchemeKind::PS);
    onCfg.charge.kind = battery::ChargePolicyKind::Online;
    auto offCfg = baseConfig(SchemeKind::PS);
    offCfg.charge.kind = battery::ChargePolicyKind::Offline;
    ClusterEngine on(onCfg, workload_);
    ClusterEngine off(offCfg, workload_);
    on.setRecordHistory(true);
    off.setRecordHistory(true);
    on.runCoarseUntil(2 * kTicksPerDay);
    off.runCoarseUntil(2 * kTicksPerDay);

    // Time-averaged SOC spread (paper Fig. 5: offline charging
    // roughly doubles the variation).
    auto meanSpread = [](const ClusterEngine &dc) {
        double acc = 0.0;
        for (const auto &row : dc.socHistory()) {
            double mean = 0.0, var = 0.0;
            for (double s : row)
                mean += s;
            mean /= row.size();
            for (double s : row)
                var += (s - mean) * (s - mean);
            acc += std::sqrt(var / row.size());
        }
        return acc / dc.socHistory().size();
    };
    EXPECT_GT(meanSpread(off), meanSpread(on));
}

TEST_F(DataCenterTest, AttackSurvivalOrdersSchemes)
{
    // The paper's headline (Fig. 15): Conv dies first, PS/PSPC last
    // longer, PAD survives longest.
    double conv, ps, pad;
    {
        ClusterEngine dc(baseConfig(SchemeKind::Conv), workload_);
        dc.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);
        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        attack::TwoPhaseAttacker atk(ac);
        conv = dc.runAttack(atk, scenario(dc)).survivalSec;
    }
    {
        ClusterEngine dc(baseConfig(SchemeKind::PS), workload_);
        dc.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);
        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        attack::TwoPhaseAttacker atk(ac);
        ps = dc.runAttack(atk, scenario(dc)).survivalSec;
    }
    {
        ClusterEngine dc(baseConfig(SchemeKind::Pad), workload_);
        dc.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);
        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        attack::TwoPhaseAttacker atk(ac);
        pad = dc.runAttack(atk, scenario(dc)).survivalSec;
    }
    EXPECT_LE(conv, ps);
    EXPECT_LE(ps, pad);
    EXPECT_LT(conv, pad);
}

TEST_F(DataCenterTest, AttackOutcomeRecordsSeries)
{
    ClusterEngine dc(baseConfig(SchemeKind::PS), workload_);
    dc.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);
    attack::AttackerConfig ac;
    attack::TwoPhaseAttacker atk(ac);
    auto sc = scenario(dc, 300.0);
    const auto out = dc.runAttack(atk, sc);
    EXPECT_GT(out.rackPower.size(), 200u);
    EXPECT_GT(out.rackPower.maxValue(), dc.config().rackBudget());
    EXPECT_LE(out.rackSoc.maxValue(), 1.0 + 1e-9);
    EXPECT_GE(out.rackSoc.minValue(), 0.0);
}

TEST_F(DataCenterTest, PhaseTwoSpikeWindowsEnumerated)
{
    ClusterEngine dc(baseConfig(SchemeKind::PS), workload_);
    dc.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.maxDrainSec = 100.0; // force an early Phase II
    ac.train = attack::SpikeTrain{1.0, 4.0, 1.0};
    attack::TwoPhaseAttacker atk(ac);
    auto sc = scenario(dc, 600.0);
    const auto out = dc.runAttack(atk, sc);
    ASSERT_GE(out.phaseTwoStartSec, 0.0);
    // ~4 spikes/min over the remaining ~490 s.
    EXPECT_GT(out.spikesLaunched, 20);
    EXPECT_LT(out.spikesLaunched, 40);
    for (const auto &[s, e] : out.spikeWindows)
        EXPECT_LT(s, e);
}

TEST_F(DataCenterTest, DutyCycleReducesAttackExposure)
{
    ClusterEngine a(baseConfig(SchemeKind::PS), workload_);
    ClusterEngine b(baseConfig(SchemeKind::PS), workload_);
    a.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);
    b.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);
    attack::AttackerConfig ac;
    attack::TwoPhaseAttacker atkFull(ac), atkDuty(ac);
    auto full = scenario(a, 600.0);
    auto duty = scenario(b, 600.0);
    duty.dutyCycle = 0.25;
    const auto outFull = a.runAttack(atkFull, full);
    const auto outDuty = b.runAttack(atkDuty, duty);
    EXPECT_LE(outFull.survivalSec, outDuty.survivalSec + 1e-9);
}

TEST_F(DataCenterTest, SetAllSocAndVulnerableRack)
{
    ClusterEngine dc(baseConfig(SchemeKind::PS), workload_);
    dc.setAllSoc(0.9);
    for (double s : dc.allSocs())
        EXPECT_NEAR(s, 0.9, 1e-9);
    EXPECT_NEAR(dc.socStdDevPercent(), 0.0, 1e-9);
    // The median-SoC victim is a real rack: the attack window records
    // its battery, starting from the SoC every rack was set to.
    AttackScenario sc;
    sc.targetPolicy = TargetPolicy::Median;
    sc.durationSec = 10.0;
    attack::TwoPhaseAttacker atk(attack::AttackerConfig{});
    const auto out = dc.runAttack(atk, sc);
    ASSERT_FALSE(out.rackSoc.empty());
    EXPECT_NEAR(out.rackSoc.samples().front().value, 0.9, 1e-3);
}

TEST_F(DataCenterTest, HistoryRecordingAlignsWithSteps)
{
    ClusterEngine dc(baseConfig(SchemeKind::PS), workload_);
    dc.setRecordHistory(true);
    dc.runCoarseUntil(2 * kTicksPerHour);
    EXPECT_EQ(dc.socHistory().size(), 24u); // 2 h / 5 min
    EXPECT_EQ(dc.shedHistory().size(), 24u);
    for (const auto &row : dc.socHistory())
        EXPECT_EQ(row.size(), 22u);
}

TEST_F(DataCenterTest, RackByLoadPercentileOrdersByPower)
{
    const auto cfg = baseConfig(SchemeKind::PS);
    const int cool = rackByLoadPercentile(*workload_, cfg, 0,
                                          kTicksPerDay, 0.0);
    const int hot = rackByLoadPercentile(*workload_, cfg, 0,
                                         kTicksPerDay, 100.0);
    EXPECT_NE(cool, hot);
    // Verify the hot rack really demands more on average.
    double coolP = 0.0, hotP = 0.0;
    for (int s = 0; s < 10; ++s) {
        coolP += workload_->machineMeanUtil(cool * 10 + s);
        hotP += workload_->machineMeanUtil(hot * 10 + s);
    }
    EXPECT_GT(hotP, coolP);
}

} // namespace
} // namespace pad::core
