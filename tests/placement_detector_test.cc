/**
 * @file
 * Tests for the DEB placement granularity (Fig. 3 options 3 vs 4),
 * on both engines, and the detection-triggered capping response
 * (paper §III-B).
 */

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/backend.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"

namespace pad::core {
namespace {

class PlacementDetectorTest : public ::testing::Test
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

    template <typename Engine>
    static AttackOutcome
    attack(Engine &dc, double durationSec = 900.0)
    {
        dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        ac.prepareSec = 30.0;
        ac.maxDrainSec = 400.0;
        attack::TwoPhaseAttacker attacker(ac);
        AttackScenario sc;
        sc.targetPolicy = TargetPolicy::Fixed;
        sc.targetRack = rackByLoadPercentile(
            *workload_, dc.config(), dc.now(),
            dc.now() + kTicksPerHour, 90.0);
        sc.durationSec = durationSec;
        return dc.runAttack(attacker, sc);
    }

    static std::vector<trace::TaskEvent> *events_;
    static trace::Workload *workload_;
};

std::vector<trace::TaskEvent> *PlacementDetectorTest::events_ = nullptr;
trace::Workload *PlacementDetectorTest::workload_ = nullptr;

// The placement cases run on both engines.
constexpr engine::BackendKind kBackends[] = {engine::BackendKind::Optimized,
                                             engine::BackendKind::Soa};

TEST_F(PlacementDetectorTest, PerServerPlacementSplitsCapacity)
{
    for (const engine::BackendKind kind : kBackends) {
        SCOPED_TRACE(engine::backendName(kind));
        DataCenterConfig cfg = config(SchemeKind::PS);
        cfg.debPlacement = DataCenterConfig::DebPlacement::PerServer;
        const auto dc = engine::makeClusterEngine(kind, cfg, workload_);
        // Same rated rack capacity either way.
        const auto dcCab = engine::makeClusterEngine(
            kind, config(SchemeKind::PS), workload_);
        EXPECT_NEAR(dc->allSocs()[0], dcCab->allSocs()[0], 1e-9);
        dc->setAllSoc(0.5);
        EXPECT_NEAR(dc->allSocs()[3], 0.5, 1e-9);
    }
}

TEST_F(PlacementDetectorTest, PerServerDiesSoonerUnderTargetedAttack)
{
    // The attacker's own servers exhaust exactly the BBUs backing
    // them; neighbors' stranded capacity cannot help (Fig. 3 option
    // 4 vs option 3).
    for (const engine::BackendKind kind : kBackends) {
        SCOPED_TRACE(engine::backendName(kind));
        DataCenterConfig per = config(SchemeKind::PS);
        per.debPlacement = DataCenterConfig::DebPlacement::PerServer;
        const auto a = engine::makeClusterEngine(
            kind, config(SchemeKind::PS), workload_);
        const auto b = engine::makeClusterEngine(kind, per, workload_);
        const double cabinet = attack(*a).survivalSec;
        const double perServer = attack(*b).survivalSec;
        EXPECT_LT(perServer, cabinet);
    }
}

TEST_F(PlacementDetectorTest, VdebPoolingEqualizesPlacements)
{
    for (const engine::BackendKind kind : kBackends) {
        SCOPED_TRACE(engine::backendName(kind));
        DataCenterConfig per = config(SchemeKind::VdebOnly);
        per.debPlacement = DataCenterConfig::DebPlacement::PerServer;
        const auto a = engine::makeClusterEngine(
            kind, config(SchemeKind::VdebOnly), workload_);
        const auto b = engine::makeClusterEngine(kind, per, workload_);
        const double cabinet = attack(*a).survivalSec;
        const double perServer = attack(*b).survivalSec;
        // Sharing across the PDU recovers (most of) the fragmentation
        // loss: within 20% of each other.
        EXPECT_NEAR(perServer, cabinet, 0.2 * cabinet + 1.0);
    }
}

TEST_F(PlacementDetectorTest, DetectorFlagsAttackAndCapsCluster)
{
    DataCenterConfig cfg = config(SchemeKind::PS);
    cfg.detectorResponse = true;
    cfg.detectorInterval = 10 * kTicksPerSecond;
    DataCenter dc(cfg, workload_);
    const auto out = attack(dc);
    EXPECT_GT(dc.detectionsFlagged(), 0u);
    // Blanket capping costs benign throughput.
    EXPECT_LT(out.throughput, 0.999);
}

TEST_F(PlacementDetectorTest, CoarseDetectorSeesLessThanFine)
{
    DataCenterConfig fine = config(SchemeKind::PS);
    fine.detectorResponse = true;
    fine.detectorInterval = 5 * kTicksPerSecond;
    DataCenterConfig coarse = fine;
    coarse.detectorInterval = 5 * kTicksPerMinute;
    DataCenter a(fine, workload_);
    DataCenter b(coarse, workload_);
    attack(a);
    attack(b);
    EXPECT_GT(a.detectionsFlagged(), b.detectionsFlagged());
}

TEST_F(PlacementDetectorTest, DetectorOffByDefault)
{
    DataCenter dc(config(SchemeKind::PS), workload_);
    attack(dc);
    EXPECT_EQ(dc.detectionsFlagged(), 0u);
}

} // namespace
} // namespace pad::core
