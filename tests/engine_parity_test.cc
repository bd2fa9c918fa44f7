/**
 * @file
 * Bit-exact regression anchor for the cluster engine.
 *
 * Every value below (%.17g doubles and FNV-1a digests over the bit
 * patterns of the SoC and shed series) was captured from the
 * structure-of-arrays engine as it stood when the scalar engine was
 * deleted. The scalar engine had been the reference these runs were
 * compared against; the anchors now stand in for it, so any change to
 * the engine's arithmetic, or to the order of its floating-point
 * folds, shows up here. Re-capture them only for an intended,
 * explained change to the simulated physics.
 *
 * Checks that need no reference stay alongside: SoC bounds per rack
 * and per battery unit, and fleet energy conservation.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "core/schemes.h"
#include "engine/cluster_engine.h"
#include "runner/experiment.h"

using namespace pad;

namespace {

using Engine = engine::ClusterEngine;

class DataCenterParity : public ::testing::Test
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

    static runner::ClusterWorkload *workload_;
};

runner::ClusterWorkload *DataCenterParity::workload_ = nullptr;

/** FNV-1a over the bit patterns of @p values, chained from @p hash. */
std::uint64_t
bitDigest(std::uint64_t hash, const std::vector<double> &values)
{
    for (const double v : values) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            hash ^= (bits >> (8 * i)) & 0xffu;
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

/** SoC and shed-ratio history digests of a coarse run. */
using Digests = std::pair<std::uint64_t, std::uint64_t>;

Digests
historyDigests(const runner::ExperimentResult &r)
{
    std::uint64_t soc = kFnvOffset;
    for (const std::vector<double> &row : r.telemetry.socHistory) {
        EXPECT_EQ(row.size(), 22u);
        soc = bitDigest(soc, row);
    }
    return Digests{soc, bitDigest(kFnvOffset, r.telemetry.shedHistory)};
}

/** Every rack of @p r ends with a state of charge in [0,1]. */
void
expectSocsInRange(const runner::ExperimentResult &r)
{
    ASSERT_EQ(r.telemetry.socs.size(), 22u);
    for (const double soc : r.telemetry.socs) {
        EXPECT_GE(soc, 0.0);
        EXPECT_LE(soc, 1.0 + 1e-12);
    }
}

/** Attack window @p o launched no Phase II spike. */
void
expectNoPhaseTwo(const core::AttackOutcome &o)
{
    EXPECT_EQ(o.spikesLaunched, 0);
    EXPECT_TRUE(o.spikeWindows.empty());
    EXPECT_EQ(o.phaseTwoStartSec, -1.0);
}

core::DataCenterConfig
perServerConfig(core::SchemeKind scheme)
{
    core::DataCenterConfig cfg = runner::clusterConfig(scheme);
    cfg.debPlacement = core::DataCenterConfig::DebPlacement::PerServer;
    return cfg;
}

/**
 * Fleet energy balance of a run that started full: what is stored
 * now equals the rated capacity minus what was discharged plus what
 * was recharged.
 */
void
expectEnergyConserved(const runner::ExperimentResult &r,
                      const core::DataCenterConfig &cfg)
{
    const double capacityWh =
        cfg.deb.capacityWh * static_cast<double>(cfg.racks);
    double storedWh = 0.0;
    for (const double soc : r.telemetry.socs)
        storedWh += soc * cfg.deb.capacityWh;
    const double balanceWh = capacityWh -
                             r.stats->lookup("deb.discharged_wh") +
                             r.stats->lookup("deb.charged_wh");
    EXPECT_NEAR(storedWh, balanceWh, 1e-9 * capacityWh);
}

TEST_F(DataCenterParity, AttackRunBitIdentical)
{
    runner::ClusterAttackSpec spec;
    spec.durationSec = 120.0;
    runner::ExperimentResult r = runner::runExperiment(
        runner::Experiment::clusterAttack(spec, *workload_));
    EXPECT_EQ(r.attackOutcome.survivalSec, 120.0);
    EXPECT_EQ(r.attackOutcome.throughput, 1.0);
    expectNoPhaseTwo(r.attackOutcome);
    EXPECT_EQ(r.attackOutcome.maxShedRatio, 0.0);
    EXPECT_EQ(r.telemetry.detections, 0u);
    EXPECT_EQ(r.telemetry.socStdDevPercent, 5.5511151231257827e-14);
    ASSERT_EQ(r.telemetry.socs.size(), 22u);
    for (std::size_t i = 0; i < r.telemetry.socs.size(); ++i)
        EXPECT_EQ(r.telemetry.socs[i], 0.95417898926327549)
            << "rack " << i;

    // PAD keeps every rack alive for 120 s with equal SOCs; PS over
    // 600 s overloads a rack inside the window, so per-rack battery
    // depletion and the overload path shape the outcome.
    spec.scheme = core::SchemeKind::PS;
    spec.durationSec = 600.0;
    r = runner::runExperiment(
        runner::Experiment::clusterAttack(spec, *workload_));
    EXPECT_EQ(r.attackOutcome.survivalSec, 568.89999999999998);
    EXPECT_EQ(r.attackOutcome.throughput, 0.99769246160393421);
    EXPECT_EQ(r.telemetry.socStdDevPercent, 22.731681572032215);
    expectSocsInRange(r);
    EXPECT_EQ(bitDigest(kFnvOffset, r.telemetry.socs),
              0x45d8d0db83239257ull);
    EXPECT_EQ(r.stats->lookup("deb.lvd_trips"), 3.0);
}

TEST_F(DataCenterParity, CoarseHistoryBitIdentical)
{
    // The 8 h night never discharges a battery (every SOC stays
    // 1.0); 16 h reaches the daytime peak, where the DEBs shave and
    // recharge.
    const auto digests = [&](double hours) {
        runner::ClusterCoarseSpec spec;
        spec.untilHours = hours;
        spec.recordHistory = true;
        const runner::ExperimentResult r = runner::runExperiment(
            runner::Experiment::clusterCoarse(spec, *workload_));
        EXPECT_EQ(r.telemetry.socHistory.size(),
                  static_cast<std::size_t>(hours * 12));
        EXPECT_EQ(r.telemetry.shedHistory.size(),
                  r.telemetry.socHistory.size());
        expectSocsInRange(r);
        return historyDigests(r);
    };
    EXPECT_EQ(digests(8.0),
              Digests(0x504c036322e86725ull, 0x9fa9e040e0eedf25ull));
    EXPECT_EQ(digests(16.0),
              Digests(0x943a72b6588fab15ull, 0x6ab05ef9aa8b9b25ull));
}

TEST_F(DataCenterParity, SoaCoarseTrajectoriesMatchScalar)
{
    // The deleted scalar engine's 8 h coarse history has a closed
    // form: no battery discharges overnight, so every SoC sample is
    // 1.0 and every shed sample 0.0. Its digests are the 8 h pair
    // pinned above, which the scalar engine produced.
    runner::ClusterCoarseSpec spec;
    spec.untilHours = 8.0;
    spec.recordHistory = true;
    const runner::ExperimentResult soa = runner::runExperiment(
        runner::Experiment::clusterCoarse(spec, *workload_));
    expectSocsInRange(soa);

    runner::ExperimentResult scalar;
    scalar.telemetry.socHistory.assign(
        96, std::vector<double>(22, 1.0));
    scalar.telemetry.shedHistory.assign(96, 0.0);
    ASSERT_EQ(historyDigests(scalar),
              Digests(0x504c036322e86725ull, 0x9fa9e040e0eedf25ull));

    // Step by step, so a drift names the step and rack it starts at.
    ASSERT_EQ(soa.telemetry.socHistory.size(),
              scalar.telemetry.socHistory.size());
    for (std::size_t step = 0;
         step < scalar.telemetry.socHistory.size(); ++step) {
        const auto &a = soa.telemetry.socHistory[step];
        const auto &b = scalar.telemetry.socHistory[step];
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t r = 0; r < a.size(); ++r)
            EXPECT_NEAR(a[r], b[r], 1e-6)
                << "step " << step << " rack " << r;
    }
    ASSERT_EQ(soa.telemetry.shedHistory.size(),
              scalar.telemetry.shedHistory.size());
    for (std::size_t step = 0;
         step < scalar.telemetry.shedHistory.size(); ++step)
        EXPECT_NEAR(soa.telemetry.shedHistory[step],
                    scalar.telemetry.shedHistory[step], 1e-6)
            << "step " << step;
}

TEST_F(DataCenterParity, SoaAttackOutcomePhysicallyEquivalent)
{
    runner::ClusterAttackSpec spec;
    spec.durationSec = 240.0;
    const runner::ExperimentResult r = runner::runExperiment(
        runner::Experiment::clusterAttack(spec, *workload_));
    expectEnergyConserved(r, runner::clusterConfig(spec.scheme));
    EXPECT_EQ(r.attackOutcome.survivalSec, 240.0);
    EXPECT_EQ(r.attackOutcome.throughput, 1.0);
    EXPECT_EQ(r.attackOutcome.maxShedRatio, 0.0);
    expectNoPhaseTwo(r.attackOutcome);
    EXPECT_EQ(r.telemetry.socStdDevPercent, 3.3306690738754696e-14);
    expectSocsInRange(r);
    EXPECT_EQ(r.telemetry.socs[0], 0.86756182419189587);
    EXPECT_EQ(bitDigest(kFnvOffset, r.telemetry.socs),
              0xa3dd8416f41c54e1ull);
    EXPECT_EQ(r.stats->lookup("deb.discharged_wh"), 3537.2252275564233);
    EXPECT_EQ(r.stats->lookup("deb.charged_wh"), 3185.8348638726507);
}

TEST_F(DataCenterParity, WearBitIdenticalPerRack)
{
    runner::ClusterAttackSpec spec;
    spec.durationSec = 240.0;
    const runner::ExperimentResult r = runner::runExperiment(
        runner::Experiment::clusterAttack(spec, *workload_));

    std::vector<double> wear;
    r.stats->forEachVector(
        [&](const std::string &name, const std::vector<double> &values,
            const std::string &) {
            if (name == "deb.wear")
                wear = values;
        });
    // One wear value per rack, and not the all-zero vector an engine
    // without aging would export.
    ASSERT_EQ(wear.size(), 22u);
    double totalWear = 0.0;
    for (const double w : wear)
        totalWear += w;
    EXPECT_GT(totalWear, 0.0);
    EXPECT_EQ(bitDigest(kFnvOffset, wear), 0x03eaacd343ecbcc7ull);
}

// ---------------------------------------------------------------------
// Per-server BBU placement
// ---------------------------------------------------------------------

/**
 * Every battery unit of @p engine holds a state of charge in [0,1].
 * @return the unit SoCs' digest
 */
std::uint64_t
unitSocsInRange(const Engine &engine, std::size_t units)
{
    const std::vector<double> socs = engine.unitSocs();
    EXPECT_EQ(socs.size(), units);
    for (std::size_t u = 0; u < socs.size(); ++u) {
        EXPECT_GE(socs[u], 0.0) << "unit " << u;
        EXPECT_LE(socs[u], 1.0 + 1e-12) << "unit " << u;
    }
    return bitDigest(kFnvOffset, socs);
}

TEST_F(DataCenterParity, PerServerAttackPhysicallyEquivalent)
{
    runner::ClusterAttackSpec spec;
    spec.config = perServerConfig(core::SchemeKind::Pad);
    spec.durationSec = 240.0;
    const runner::ExperimentResult r = runner::runExperiment(
        runner::Experiment::clusterAttack(spec, *workload_));

    expectEnergyConserved(r, *spec.config);
    expectSocsInRange(r);
    EXPECT_GT(r.stats->lookup("deb.discharged_wh"), 0.0);
    EXPECT_EQ(r.attackOutcome.survivalSec, 240.0);
    EXPECT_EQ(r.attackOutcome.throughput, 1.0);
    EXPECT_EQ(r.attackOutcome.maxShedRatio, 0.0);
    expectNoPhaseTwo(r.attackOutcome);
    EXPECT_EQ(r.stats->lookup("deb.lvd_trips"), 0.0);
    EXPECT_EQ(r.stats->lookup("deb.discharged_wh"), 58.28188906465757);
    EXPECT_EQ(bitDigest(kFnvOffset, r.telemetry.socs),
              0x1af1ed5066e15f6dull);

    // Per unit: drive the same warmup and a PS attack that drains
    // the victim's own BBUs (no pooling) on the engine itself.
    core::DataCenterConfig cfg = perServerConfig(core::SchemeKind::PS);
    Engine engine(cfg, workload_->workload.get());
    engine.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    attack::TwoPhaseAttacker attacker(ac);
    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::MostVulnerable;
    sc.durationSec = 600.0;
    const core::AttackOutcome o = engine.runAttack(attacker, sc);
    EXPECT_EQ(o.survivalSec, 81.200000000000003);
    EXPECT_EQ(o.throughput, 0.97794365453260312);
    EXPECT_EQ(unitSocsInRange(
                  engine, static_cast<std::size_t>(cfg.totalServers())),
              0x1e18df6b862d8f80ull);
}

TEST_F(DataCenterParity, PerServerCoarseHistoryBitIdentical)
{
    runner::ClusterCoarseSpec spec;
    spec.untilHours = 16.0;
    spec.recordHistory = true;
    struct Anchor {
        core::SchemeKind scheme;
        Digests history;
        std::uint64_t units;
    };
    for (const Anchor &a :
         {Anchor{core::SchemeKind::PS,
                 Digests(0xc2b7b523823d0f00ull, 0x6ab05ef9aa8b9b25ull),
                 0x0db1c3f6c1b329ffull},
          Anchor{core::SchemeKind::Pad,
                 Digests(0x0e8e45a2d222138full, 0x39efa892990d4439ull),
                 0xef66c3b2abc4d195ull}}) {
        SCOPED_TRACE(core::schemeName(a.scheme));
        // A cluster budget tight enough that the pooled PAD fleet
        // discharges, too, before the daytime peak.
        spec.config = perServerConfig(a.scheme);
        spec.config->clusterBudgetFraction = 0.6;
        const runner::ExperimentResult r = runner::runExperiment(
            runner::Experiment::clusterCoarse(spec, *workload_));

        expectEnergyConserved(r, *spec.config);
        EXPECT_GT(r.stats->lookup("deb.discharged_wh"), 0.0);
        EXPECT_EQ(r.telemetry.socHistory.size(), 192u);
        EXPECT_EQ(historyDigests(r), a.history);

        Engine engine(*spec.config, workload_->workload.get());
        engine.runCoarseUntil(16 * kTicksPerHour);
        EXPECT_EQ(unitSocsInRange(engine, static_cast<std::size_t>(
                                              spec.config->totalServers())),
                  a.units);
    }
}

} // namespace
