/**
 * @file
 * Engine-backend parity tests. Two contracts, two strengths:
 *
 *  - The scalar engine against goldens: bit-identical. The goldens
 *    were captured before the pre-optimization scalar code paths were
 *    deleted, from a build where both paths still produced the same
 *    bits, so any change to the scalar arithmetic shows up here.
 *  - Scalar vs SoA: physically equivalent, not bit-identical. The
 *    SoA engine sums rack power benign-first and accounts throughput
 *    per rack, so floating-point folds reorder by design; the tests
 *    assert the physical invariants instead (SoC bounds, SoC / shed
 *    trajectories within tight tolerance, survival-time and
 *    throughput agreement within tolerance).
 *
 * Backends are selected through the explicit Experiment::backend
 * field.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attacker.h"
#include "engine/backend.h"
#include "engine/soa_engine.h"
#include "runner/experiment.h"

using namespace pad;

namespace {

// ---------------------------------------------------------------------
// DataCenter: full-simulation goldens
// ---------------------------------------------------------------------

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

/** Run one experiment on an explicit backend. */
runner::ExperimentResult
runOn(runner::Experiment e, engine::BackendKind backend)
{
    e.backend = backend;
    return runner::runExperiment(e);
}

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

TEST_F(DataCenterParity, AttackRunBitIdentical)
{
    // Golden values (%.17g) from the scalar engine before its
    // pre-optimization code paths were removed.
    runner::ClusterAttackSpec spec;
    spec.durationSec = 120.0;
    runner::ExperimentResult r = runOn(
        runner::Experiment::clusterAttack(spec, *workload_),
        engine::BackendKind::Optimized);
    EXPECT_EQ(r.attackOutcome.survivalSec, 120.0);
    EXPECT_EQ(r.attackOutcome.throughput, 1.0);
    EXPECT_EQ(r.attackOutcome.spikesLaunched, 0);
    EXPECT_TRUE(r.attackOutcome.spikeWindows.empty());
    EXPECT_EQ(r.attackOutcome.maxShedRatio, 0.0);
    EXPECT_EQ(r.attackOutcome.phaseTwoStartSec, -1.0);
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
    r = runOn(runner::Experiment::clusterAttack(spec, *workload_),
              engine::BackendKind::Optimized);
    EXPECT_EQ(r.attackOutcome.survivalSec, 568.89999999999998);
    EXPECT_EQ(r.attackOutcome.throughput, 0.99769246160394454);
    EXPECT_EQ(r.telemetry.socStdDevPercent, 22.731681572032215);
    ASSERT_EQ(r.telemetry.socs.size(), 22u);
    EXPECT_EQ(bitDigest(kFnvOffset, r.telemetry.socs),
              0xc1230e0ec725d297ull);
}

TEST_F(DataCenterParity, CoarseHistoryBitIdentical)
{
    // Golden digests of the coarse SOC/shed histories, same
    // provenance as above. The 8 h night never discharges a battery
    // (every SOC stays 1.0); 16 h reaches the daytime peak, where
    // the DEBs shave and recharge.
    using Digests = std::pair<std::uint64_t, std::uint64_t>;
    const auto digests = [&](double hours) {
        runner::ClusterCoarseSpec spec;
        spec.untilHours = hours;
        spec.recordHistory = true;
        const runner::ExperimentResult r = runOn(
            runner::Experiment::clusterCoarse(spec, *workload_),
            engine::BackendKind::Optimized);
        EXPECT_EQ(r.telemetry.socHistory.size(),
                  static_cast<std::size_t>(hours * 12));
        std::uint64_t soc = kFnvOffset;
        for (const std::vector<double> &row : r.telemetry.socHistory) {
            EXPECT_EQ(row.size(), 22u);
            soc = bitDigest(soc, row);
        }
        return Digests{soc,
                       bitDigest(kFnvOffset, r.telemetry.shedHistory)};
    };
    EXPECT_EQ(digests(8.0),
              Digests(0x504c036322e86725ull, 0x9fa9e040e0eedf25ull));
    EXPECT_EQ(digests(16.0),
              Digests(0x943a72b6588fab15ull, 0x6ab05ef9aa8b9b25ull));
}

// ---------------------------------------------------------------------
// Scalar vs SoA: physical-invariant parity
// ---------------------------------------------------------------------

TEST_F(DataCenterParity, SoaCoarseTrajectoriesMatchScalar)
{
    runner::ClusterCoarseSpec spec;
    spec.untilHours = 8.0;
    spec.recordHistory = true;
    const runner::Experiment e =
        runner::Experiment::clusterCoarse(spec, *workload_);

    const runner::ExperimentResult scalar =
        runOn(e, engine::BackendKind::Optimized);
    const runner::ExperimentResult soa =
        runOn(e, engine::BackendKind::Soa);

    // SoC stays physical everywhere.
    for (const double soc : soa.telemetry.socs) {
        EXPECT_GE(soc, 0.0);
        EXPECT_LE(soc, 1.0 + 1e-12);
    }

    // The SoA engine walks the same physics with reordered rack
    // sums, so coarse SOC/shed trajectories track the scalar ones to
    // floating-point noise, step by step.
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
    const runner::Experiment e =
        runner::Experiment::clusterAttack(spec, *workload_);

    const runner::ExperimentResult scalar =
        runOn(e, engine::BackendKind::Optimized);
    const runner::ExperimentResult soa =
        runOn(e, engine::BackendKind::Soa);

    // SoC bounds after the attack window.
    ASSERT_EQ(soa.telemetry.socs.size(),
              scalar.telemetry.socs.size());
    for (const double soc : soa.telemetry.socs) {
        EXPECT_GE(soc, 0.0);
        EXPECT_LE(soc, 1.0 + 1e-12);
    }

    // The attack schedule is attacker-side state, independent of the
    // engine's floating-point fold order.
    EXPECT_EQ(soa.attackOutcome.spikesLaunched,
              scalar.attackOutcome.spikesLaunched);
    EXPECT_EQ(soa.attackOutcome.spikeWindows,
              scalar.attackOutcome.spikeWindows);
    EXPECT_EQ(soa.attackOutcome.phaseTwoStartSec,
              scalar.attackOutcome.phaseTwoStartSec);

    // Survival and throughput agree within tolerance: the reordered
    // sums can shift a threshold crossing by a tick or two, not by
    // whole phases.
    const double window = spec.durationSec;
    EXPECT_NEAR(soa.attackOutcome.survivalSec,
                scalar.attackOutcome.survivalSec, 0.05 * window);
    EXPECT_NEAR(soa.attackOutcome.throughput,
                scalar.attackOutcome.throughput, 0.02);
    EXPECT_NEAR(soa.attackOutcome.maxShedRatio,
                scalar.attackOutcome.maxShedRatio, 0.02);

    // Per-rack end state tracks the scalar engine tightly.
    for (std::size_t r = 0; r < soa.telemetry.socs.size(); ++r)
        EXPECT_NEAR(soa.telemetry.socs[r], scalar.telemetry.socs[r],
                    1e-3)
            << "rack " << r;
}

TEST_F(DataCenterParity, SoaWearMatchesScalarPerRack)
{
    runner::ClusterAttackSpec spec;
    spec.durationSec = 240.0;
    const runner::Experiment e =
        runner::Experiment::clusterAttack(spec, *workload_);

    const runner::ExperimentResult scalar =
        runOn(e, engine::BackendKind::Optimized);
    const runner::ExperimentResult soa =
        runOn(e, engine::BackendKind::Soa);

    const auto wearOf = [](const runner::ExperimentResult &r) {
        std::vector<double> wear;
        r.stats->forEachVector(
            [&](const std::string &name,
                const std::vector<double> &values, const std::string &) {
                if (name == "deb.wear")
                    wear = values;
            });
        return wear;
    };
    const std::vector<double> a = wearOf(scalar);
    const std::vector<double> b = wearOf(soa);

    // The SoA engine replicates the scalar AgingModel arithmetic per
    // rack (it has no BatteryUnit objects), so deb.wear must agree
    // to floating-point noise — and must not be the all-zero vector
    // the SoA backend exported before aging was wired in.
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    double totalWear = 0.0;
    for (std::size_t r = 0; r < a.size(); ++r) {
        EXPECT_NEAR(b[r], a[r], 1e-6) << "rack " << r;
        totalWear += b[r];
    }
    EXPECT_GT(totalWear, 0.0);
}

// ---------------------------------------------------------------------
// Per-server BBU placement: scalar vs SoA
// ---------------------------------------------------------------------

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

/** Every battery unit of @p engine holds a state of charge in [0,1]. */
void
expectUnitSocsInRange(const engine::SoaEngine &engine,
                      std::size_t units)
{
    const std::vector<double> socs = engine.unitSocs();
    ASSERT_EQ(socs.size(), units);
    for (std::size_t u = 0; u < socs.size(); ++u) {
        EXPECT_GE(socs[u], 0.0) << "unit " << u;
        EXPECT_LE(socs[u], 1.0 + 1e-12) << "unit " << u;
    }
}

TEST_F(DataCenterParity, PerServerAttackPhysicallyEquivalent)
{
    runner::ClusterAttackSpec spec;
    spec.config = perServerConfig(core::SchemeKind::Pad);
    spec.durationSec = 240.0;
    const runner::Experiment e =
        runner::Experiment::clusterAttack(spec, *workload_);

    const runner::ExperimentResult scalar =
        runOn(e, engine::BackendKind::Optimized);
    const runner::ExperimentResult soa =
        runOn(e, engine::BackendKind::Soa);

    expectEnergyConserved(scalar, *spec.config);
    expectEnergyConserved(soa, *spec.config);
    EXPECT_GT(soa.stats->lookup("deb.discharged_wh"), 0.0);

    EXPECT_EQ(soa.attackOutcome.spikesLaunched,
              scalar.attackOutcome.spikesLaunched);
    EXPECT_EQ(soa.attackOutcome.spikeWindows,
              scalar.attackOutcome.spikeWindows);
    EXPECT_EQ(soa.attackOutcome.phaseTwoStartSec,
              scalar.attackOutcome.phaseTwoStartSec);
    const double window = spec.durationSec;
    EXPECT_NEAR(soa.attackOutcome.survivalSec,
                scalar.attackOutcome.survivalSec, 0.05 * window);
    EXPECT_NEAR(soa.attackOutcome.throughput,
                scalar.attackOutcome.throughput, 0.02);
    EXPECT_NEAR(soa.attackOutcome.maxShedRatio,
                scalar.attackOutcome.maxShedRatio, 0.02);
    ASSERT_EQ(soa.telemetry.socs.size(), scalar.telemetry.socs.size());
    for (std::size_t r = 0; r < soa.telemetry.socs.size(); ++r)
        EXPECT_NEAR(soa.telemetry.socs[r], scalar.telemetry.socs[r],
                    1e-3)
            << "rack " << r;
    EXPECT_EQ(soa.stats->lookup("deb.lvd_trips"),
              scalar.stats->lookup("deb.lvd_trips"));

    // Per unit: drive the same warmup and a PS attack that drains
    // the victim's own BBUs (no pooling) on the SoA engine itself.
    core::DataCenterConfig cfg = perServerConfig(core::SchemeKind::PS);
    engine::SoaEngine engine(cfg, workload_->workload.get());
    engine.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);
    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    attack::TwoPhaseAttacker attacker(ac);
    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::MostVulnerable;
    sc.durationSec = 600.0;
    engine.runAttack(attacker, sc);
    expectUnitSocsInRange(
        engine, static_cast<std::size_t>(cfg.totalServers()));
}

TEST_F(DataCenterParity, PerServerCoarseHistoryMatchesScalar)
{
    runner::ClusterCoarseSpec spec;
    spec.untilHours = 16.0;
    spec.recordHistory = true;
    for (const core::SchemeKind scheme :
         {core::SchemeKind::PS, core::SchemeKind::Pad}) {
        // A cluster budget tight enough that the pooled PAD fleet
        // discharges, too, before the daytime peak.
        spec.config = perServerConfig(scheme);
        spec.config->clusterBudgetFraction = 0.6;
        const runner::Experiment e =
            runner::Experiment::clusterCoarse(spec, *workload_);
        const runner::ExperimentResult scalar =
            runOn(e, engine::BackendKind::Optimized);
        const runner::ExperimentResult soa =
            runOn(e, engine::BackendKind::Soa);

        expectEnergyConserved(scalar, *spec.config);
        expectEnergyConserved(soa, *spec.config);
        EXPECT_GT(soa.stats->lookup("deb.discharged_wh"), 0.0);

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

        engine::SoaEngine engine(*spec.config,
                                 workload_->workload.get());
        engine.runCoarseUntil(16 * kTicksPerHour);
        expectUnitSocsInRange(
            engine, static_cast<std::size_t>(spec.config->totalServers()));
    }
}

} // namespace
