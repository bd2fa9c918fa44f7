/**
 * @file
 * Tests for the attack-campaign driver: ordering, state persistence
 * across strikes, horizon handling, and aggregate reporting.
 */

#include <gtest/gtest.h>

#include "engine/campaign.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"

namespace pad::core {
namespace {

using engine::CampaignAttack;
using engine::CampaignDriver;
using engine::ClusterEngine;

class CampaignTest : public ::testing::Test
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

    static CampaignAttack
    strike(Tick at, double durationSec = 600.0)
    {
        CampaignAttack s;
        s.startAt = at;
        s.attacker.controlledNodes = 4;
        s.attacker.prepareSec = 30.0;
        s.attacker.maxDrainSec = 300.0;
        s.scenario.targetPolicy = TargetPolicy::MostVulnerable;
        s.scenario.durationSec = durationSec;
        return s;
    }

    static std::vector<trace::TaskEvent> *events_;
    static trace::Workload *workload_;
};

std::vector<trace::TaskEvent> *CampaignTest::events_ = nullptr;
trace::Workload *CampaignTest::workload_ = nullptr;

TEST_F(CampaignTest, RunsStrikesInTimeOrder)
{
    ClusterEngine dc(config(SchemeKind::PS), workload_);
    // Deliberately unsorted input.
    std::vector<CampaignAttack> plan{
        strike(kTicksPerDay + 12 * kTicksPerHour),
        strike(kTicksPerDay + 6 * kTicksPerHour),
    };
    CampaignDriver driver(dc, std::move(plan));
    const auto report = driver.run(2 * kTicksPerDay);
    ASSERT_EQ(report.strikes.size(), 2u);
    EXPECT_LT(report.strikes[0].startedAt,
              report.strikes[1].startedAt);
    // The day finished: the clock advanced to the horizon.
    EXPECT_GE(dc.now(), 2 * kTicksPerDay);
}

TEST_F(CampaignTest, StrikesPastHorizonAreSkipped)
{
    ClusterEngine dc(config(SchemeKind::PS), workload_);
    std::vector<CampaignAttack> plan{
        strike(kTicksPerDay + 6 * kTicksPerHour),
        strike(10 * kTicksPerDay), // never happens
    };
    CampaignDriver driver(dc, std::move(plan));
    const auto report = driver.run(2 * kTicksPerDay);
    EXPECT_EQ(report.strikes.size(), 1u);
}

TEST_F(CampaignTest, PeakStrikeBeatsIdleStrike)
{
    ClusterEngine dc(config(SchemeKind::PS), workload_);
    std::vector<CampaignAttack> plan{
        strike(kTicksPerDay + 4 * kTicksPerHour, 900.0),
        strike(kTicksPerDay + 13 * kTicksPerHour, 900.0),
    };
    CampaignDriver driver(dc, std::move(plan));
    const auto report = driver.run(2 * kTicksPerDay);
    ASSERT_EQ(report.strikes.size(), 2u);
    // Pre-dawn: headroom everywhere, the attack rides out the
    // window; peak: the victim overloads.
    EXPECT_FALSE(report.strikes[0].overloaded);
    EXPECT_TRUE(report.strikes[1].overloaded);
    EXPECT_EQ(report.successfulStrikes, 1);
}

TEST_F(CampaignTest, PadResistsWherePsFails)
{
    auto runCampaign = [&](SchemeKind scheme) {
        ClusterEngine dc(config(scheme), workload_);
        std::vector<CampaignAttack> plan{
            strike(kTicksPerDay + 10 * kTicksPerHour, 900.0),
            strike(kTicksPerDay + 14 * kTicksPerHour, 900.0),
        };
        CampaignDriver driver(dc, std::move(plan));
        return driver.run(2 * kTicksPerDay).successfulStrikes;
    };
    EXPECT_GT(runCampaign(SchemeKind::PS),
              runCampaign(SchemeKind::Pad));
}

TEST_F(CampaignTest, EmptyCampaignIsJustNormalOperation)
{
    ClusterEngine dc(config(SchemeKind::PS), workload_);
    CampaignDriver driver(dc, {});
    const auto report = driver.run(kTicksPerDay);
    EXPECT_TRUE(report.strikes.empty());
    EXPECT_EQ(report.successfulStrikes, 0);
    EXPECT_NEAR(report.overallThroughput, 1.0, 1e-9);
    EXPECT_GE(dc.now(), kTicksPerDay);
}

} // namespace
} // namespace pad::core
