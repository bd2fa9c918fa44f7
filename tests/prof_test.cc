/**
 * @file
 * Tests for the engine self-profiling layer (obs::EngineProfiler):
 * phase accounting under a deterministic fake clock, fine-tick
 * sampling, counter monotonicity, the zero-cost-when-disabled
 * contract (no allocations, no clock reads, bit-identical
 * simulation outputs), deterministic parallel-vs-serial sweep
 * merges of the engine.* stats, Prometheus exposition validity of
 * the pad_engine_* metrics, Chrome counter-event rendering, and the
 * allocation-free per-step sorts of the vDEB and charge controllers.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "battery/charge_policy.h"
#include "core/vdeb.h"
#include "counting_new.h"
#include "engine/cluster_engine.h"
#include "engine/prof_stats.h"
#include "obs/prof.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "runner/experiment.h"
#include "runner/sweep_runner.h"
#include "sim/stats_registry.h"
#include "telemetry/prom.h"
#include "util/index_sort.h"
#include "util/json.h"

using namespace pad;

namespace {

using Phase = obs::EngineProfiler::Phase;

/**
 * Deterministic fake clock: every read advances time by exactly
 * 1 µs. Thread-local, so parallel sweep workers each see their own
 * monotonic sequence — and since PhaseScope only records *deltas*
 * (reads-between x 1 µs, a pure function of the simulation), the
 * recorded seconds are identical whichever worker runs the job.
 */
thread_local double tlsFakeClock = 0.0;

double
tickingClock()
{
    return tlsFakeClock += 1.0e-6;
}

/** Clock that counts how often anyone reads it. */
std::atomic<std::uint64_t> gClockReads{0};

double
countingClock()
{
    gClockReads.fetch_add(1, std::memory_order_relaxed);
    return 0.0;
}

// ---------------------------------------------------------------------
// Phase accounting and sampling
// ---------------------------------------------------------------------

TEST(EngineProfiler, PhaseScopeRecordsOneClockDeltaPerLap)
{
    obs::EngineProfiler prof(/*samplePeriod=*/1);
    prof.setClock(&tickingClock);
    prof.beginStep(/*fine=*/false);
    ASSERT_TRUE(prof.sampling());
    {
        const obs::PhaseScope scope(&prof, Phase::KibamBatch);
    }
    const auto &t = prof.phase(Phase::KibamBatch);
    EXPECT_EQ(t.laps, 1u);
    // Exactly two reads, one tick apart.
    EXPECT_NEAR(t.seconds, 1.0e-6, 1.0e-12);
    EXPECT_DOUBLE_EQ(prof.totalPhaseSeconds(), t.seconds);
    EXPECT_EQ(prof.phase(Phase::Detector).laps, 0u);
}

TEST(EngineProfiler, FineTicksSampleEveryNthCoarseAlways)
{
    obs::EngineProfiler prof(/*samplePeriod=*/4);
    prof.setClock(&tickingClock);
    int sampled = 0;
    for (int i = 0; i < 16; ++i) {
        prof.beginStep(/*fine=*/true);
        if (prof.sampling())
            ++sampled;
        const obs::PhaseScope scope(&prof, Phase::Detector);
    }
    EXPECT_EQ(sampled, 4);
    EXPECT_EQ(prof.steps(), 16u);
    EXPECT_EQ(prof.sampledSteps(), 4u);
    // Only sampled steps lap the phase timer.
    EXPECT_EQ(prof.phase(Phase::Detector).laps, 4u);

    prof.beginStep(/*fine=*/false);
    EXPECT_TRUE(prof.sampling());
    EXPECT_EQ(prof.sampledSteps(), 5u);
}

TEST(EngineProfiler, CountersAreMonotonicAndAggregate)
{
    obs::EngineProfiler prof;
    std::uint64_t lastHits = 0, lastMisses = 0;
    for (int i = 0; i < 10; ++i) {
        if (i % 2 == 0)
            prof.demandHit();
        else
            prof.demandMiss();
        if (i % 3 == 0)
            prof.malMemoHit();
        else
            prof.malMemoMiss();
        EXPECT_GE(prof.cacheHits(), lastHits);
        EXPECT_GE(prof.cacheMisses(), lastMisses);
        lastHits = prof.cacheHits();
        lastMisses = prof.cacheMisses();
    }
    EXPECT_EQ(prof.cacheHits(),
              prof.demandHits() + prof.malMemoHits());
    EXPECT_EQ(prof.cacheMisses(),
              prof.demandMisses() + prof.malMemoMisses());
    EXPECT_EQ(prof.demandHits(), 5u);
    EXPECT_EQ(prof.malMemoHits(), 4u);

    prof.reset();
    EXPECT_EQ(prof.cacheHits(), 0u);
    EXPECT_EQ(prof.cacheMisses(), 0u);
    EXPECT_EQ(prof.steps(), 0u);
}

TEST(EngineProfiler, UnsampledAndDetachedScopesCostNothing)
{
    // Null profiler: the scope is a pointer test, no clock, no heap.
    gAllocations.store(0);
    for (int i = 0; i < 1000; ++i) {
        const obs::PhaseScope scope(nullptr, Phase::DemandEval);
    }
    EXPECT_EQ(gAllocations.load(), 0u);

    // Unsampled step: attached profiler, but no clock reads either.
    obs::EngineProfiler prof(/*samplePeriod=*/1 << 20);
    prof.setClock(&countingClock);
    prof.beginStep(/*fine=*/true); // tick 0 samples...
    prof.beginStep(/*fine=*/true); // ...tick 1 does not
    ASSERT_FALSE(prof.sampling());
    gClockReads.store(0);
    gAllocations.store(0);
    for (int i = 0; i < 1000; ++i) {
        const obs::PhaseScope scope(&prof, Phase::KibamBatch);
        prof.demandHit();
    }
    EXPECT_EQ(gClockReads.load(), 0u);
    EXPECT_EQ(gAllocations.load(), 0u);
    EXPECT_EQ(prof.phase(Phase::KibamBatch).laps, 0u);
}

// ---------------------------------------------------------------------
// Engine integration: observational purity and determinism
// ---------------------------------------------------------------------

class ProfiledRuns : public ::testing::Test
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

runner::ClusterWorkload *ProfiledRuns::workload_ = nullptr;

TEST_F(ProfiledRuns, AttachingProfilerLeavesOutputsBitIdentical)
{
    runner::ClusterAttackSpec spec;
    spec.durationSec = 120.0;
    runner::Experiment e =
        runner::Experiment::clusterAttack(spec, *workload_);

    runner::Experiment profiled = e;
    profiled.profileEngine = true;

    const runner::ExperimentResult plain = runner::runExperiment(e);
    const runner::ExperimentResult prof =
        runner::runExperiment(profiled);

    EXPECT_EQ(prof.attackOutcome.survivalSec,
              plain.attackOutcome.survivalSec);
    EXPECT_EQ(prof.attackOutcome.throughput,
              plain.attackOutcome.throughput);
    EXPECT_EQ(prof.attackOutcome.spikesLaunched,
              plain.attackOutcome.spikesLaunched);
    ASSERT_EQ(prof.telemetry.socs.size(), plain.telemetry.socs.size());
    for (std::size_t r = 0; r < plain.telemetry.socs.size(); ++r)
        EXPECT_EQ(prof.telemetry.socs[r], plain.telemetry.socs[r])
            << "rack " << r;

    // The profiled run exports engine.* stats; the plain one must
    // not even register them.
    EXPECT_TRUE(
        prof.stats->contains("engine.phase.kibam_batch.seconds"));
    EXPECT_GT(prof.stats->lookupCounter("engine.prof.steps"), 0u);
    EXPECT_FALSE(
        plain.stats->contains("engine.phase.kibam_batch.seconds"));
    EXPECT_FALSE(plain.stats->contains("engine.prof.steps"));

    // Laps and counters are simulation-determined; wall seconds per
    // phase are bounded by what a run can physically spend.
    EXPECT_GT(prof.stats->lookupCounter(
                  "engine.phase.kibam_batch.laps"),
              0u);
}

TEST_F(ProfiledRuns, ParallelAndSerialSweepsMergeIdentically)
{
    std::vector<runner::Experiment> grid;
    for (int i = 0; i < 4; ++i) {
        runner::ClusterAttackSpec spec;
        spec.durationSec = 60.0;
        runner::Experiment e =
            runner::Experiment::clusterAttack(spec, *workload_);
        e.seed = static_cast<std::uint64_t>(i + 1);
        e.profileEngine = true;
        e.profileClock = &tickingClock;
        grid.push_back(e);
    }

    const runner::SweepReport serial =
        runner::SweepRunner({.jobs = 1}).runWithReport(grid);
    const runner::SweepReport parallel =
        runner::SweepRunner({.jobs = 4}).runWithReport(grid);

    std::ostringstream a, b;
    serial.stats.dump(a);
    parallel.stats.dump(b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("engine.phase."), std::string::npos);
    EXPECT_NE(a.str().find("engine.prof.steps"), std::string::npos);
}

// ---------------------------------------------------------------------
// Exports: Prometheus exposition and Chrome counter events
// ---------------------------------------------------------------------

/** A profiler with one sampled lap in every phase plus counters. */
obs::EngineProfiler
populatedProfiler()
{
    obs::EngineProfiler prof(/*samplePeriod=*/1);
    prof.setClock(&tickingClock);
    prof.beginStep(/*fine=*/false);
    for (std::size_t i = 0; i < obs::EngineProfiler::kPhaseCount; ++i) {
        const obs::PhaseScope scope(&prof, static_cast<Phase>(i));
    }
    prof.demandHit();
    prof.demandMiss();
    prof.malMemoHit();
    prof.setArenaBytes(4096);
    prof.setScratchBytes(512);
    return prof;
}

TEST(ProfilerExport, PromExpositionValidatesAndNamesMetrics)
{
    const obs::EngineProfiler prof = populatedProfiler();
    sim::StatsRegistry stats;
    engine::exportProfilerStats(prof, stats);

    const std::string text =
        telemetry::PromWriter().render(&stats, nullptr);
    std::string error;
    EXPECT_TRUE(telemetry::validatePromExposition(text, &error))
        << error;
    EXPECT_NE(text.find("pad_engine_phase_seconds"),
              std::string::npos);
    EXPECT_NE(text.find("pad_engine_cache_hits_total"),
              std::string::npos);
    EXPECT_NE(text.find("pad_engine_phase_kibam_batch_seconds"),
              std::string::npos);
}

TEST(ProfilerExport, StatsRegistryCarriesEveryPhaseAndGauge)
{
    const obs::EngineProfiler prof = populatedProfiler();
    sim::StatsRegistry stats;
    engine::exportProfilerStats(prof, stats);

    for (std::size_t i = 0; i < obs::EngineProfiler::kPhaseCount;
         ++i) {
        const std::string base =
            "engine.phase." +
            std::string(obs::EngineProfiler::phaseName(i));
        EXPECT_TRUE(stats.contains(base + ".seconds")) << base;
        EXPECT_EQ(stats.lookupCounter(base + ".laps"), 1u) << base;
        EXPECT_GT(stats.lookup(base + ".seconds"), 0.0) << base;
    }
    EXPECT_EQ(stats.lookupCounter("engine.cache_hits"), 2u);
    EXPECT_EQ(stats.lookupCounter("engine.cache_misses"), 1u);
    EXPECT_EQ(stats.lookup("engine.arena.bytes"), 4096.0);
    EXPECT_EQ(stats.lookup("engine.scratch.bytes"), 512.0);
    EXPECT_EQ(stats.lookup("engine.prof.sample_period"), 1.0);
}

TEST(ProfilerExport, ChromeCounterEventsAreValidAndTyped)
{
    std::ostringstream chrome, jsonl;
    {
        obs::ChromeTraceSink sink(chrome);
        const obs::TraceScope scope(&sink);
        obs::setTraceClock(500);
        const obs::EngineProfiler prof = populatedProfiler();
        prof.emitTraceCounters();
        sink.finish();
    }
    const auto doc = parseJson(chrome.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    std::size_t counters = 0;
    for (const JsonValue &ev : events->array) {
        const JsonValue *ph = ev.find("ph");
        if (ph && ph->isString() && ph->str == "C")
            ++counters;
    }
    // Phase-ms and cache counter tracks.
    EXPECT_EQ(counters, 2u);

    {
        obs::JsonlTraceSink sink(jsonl);
        const obs::TraceScope scope(&sink);
        const obs::EngineProfiler prof = populatedProfiler();
        prof.emitTraceCounters();
    }
    EXPECT_NE(jsonl.str().find("\"kind\":\"counter\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Per-step sorts: no allocation after warm-up, stable order on ties
// ---------------------------------------------------------------------

TEST(HotPathSort, VdebAndChargeControllersAllocateOnlyOnFirstCall)
{
    // vDEB: 22 racks with tied SOCs and a deficit on the sorted
    // (non-even) branch of Algorithm 1.
    core::VdebController vdeb(core::VdebConfig{});
    std::vector<Joules> soc(22);
    for (std::size_t r = 0; r < soc.size(); ++r)
        soc[r] = 1.0e5 * static_cast<double>(1 + r % 4);
    core::VdebAssignment plan;
    vdeb.assignInto(soc, 20000.0, 10000.0, plan);
    ASSERT_FALSE(plan.even);
    gAllocations.store(0);
    for (int step = 0; step < 100; ++step) {
        soc[static_cast<std::size_t>(step) % soc.size()] -= 10.0;
        vdeb.assignInto(soc, 20000.0, 10000.0, plan);
    }
    EXPECT_EQ(gAllocations.load(), 0u) << "VdebController::assignInto";

    // The engine's per-rack recharge, both policies, over per-server
    // BBUs: each rack sorts its ten units lowest SoC first every
    // step, under a cluster budget tight enough that they discharge
    // and recharge. After a warm-up the coarse step allocates
    // nothing.
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(1.0);
    for (const auto kind : {battery::ChargePolicyKind::Online,
                            battery::ChargePolicyKind::Offline}) {
        core::DataCenterConfig cfg =
            runner::clusterConfig(core::SchemeKind::PS);
        cfg.debPlacement = core::DataCenterConfig::DebPlacement::PerServer;
        cfg.clusterBudgetFraction = 0.6;
        cfg.charge.kind = kind;
        engine::ClusterEngine engine(cfg, cw.workload.get());
        engine.runCoarseUntil(12 * kTicksPerHour);
        gAllocations.store(0);
        engine.runCoarseUntil(16 * kTicksPerHour);
        EXPECT_EQ(gAllocations.load(), 0u)
            << "per-rack recharge, policy "
            << battery::chargePolicyName(kind);
        sim::StatsRegistry stats;
        engine.exportStats(stats);
        EXPECT_GT(stats.lookup("deb.charged_wh"), 0.0)
            << battery::chargePolicyName(kind);
    }
}

TEST(HotPathSort, TiedSocOrderMatchesStableSort)
{
    // The in-place sort with an index tie-break yields exactly the
    // order std::stable_sort gave, in both directions, for sizes
    // past the insertion-sort cutoff and with heavy ties.
    std::mt19937_64 rng(31);
    std::vector<std::size_t> order;
    for (std::size_t n = 0; n <= 80; ++n) {
        std::uniform_int_distribution<int> level(0, 4);
        std::vector<double> keys(n);
        for (double &k : keys)
            k = 0.25 * level(rng);
        const auto key = [&](std::size_t i) { return keys[i]; };
        std::vector<std::size_t> expected(n);

        std::iota(expected.begin(), expected.end(), std::size_t{0});
        std::stable_sort(expected.begin(), expected.end(),
                         [&](std::size_t a, std::size_t b) {
                             return keys[a] > keys[b];
                         });
        stableIndexSort(order, n, key, std::greater<>());
        EXPECT_EQ(order, expected) << "descending, n=" << n;

        std::iota(expected.begin(), expected.end(), std::size_t{0});
        std::stable_sort(expected.begin(), expected.end(),
                         [&](std::size_t a, std::size_t b) {
                             return keys[a] < keys[b];
                         });
        stableIndexSort(order, n, key, std::less<>());
        EXPECT_EQ(order, expected) << "ascending, n=" << n;
    }
}

} // namespace
