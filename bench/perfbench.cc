/**
 * @file
 * Reproducible perf benchmark harness (BENCH_*.json).
 *
 * Times the simulator's hot paths at three granularities — component
 * microbenchmarks (KiBaM step, alert evaluation), the fine-grained attack
 * loop (ns/tick), and whole experiments (single-run and sweep
 * throughput):
 *
 *   perfbench --json BENCH_PR21.json
 *
 * Each row has one measurement column. The engine-level rows
 * (fine_tick, single_run*, sweep*) file it under "soa", the
 * component micro-rows (kibam_step, alert_eval), which time
 * standalone objects, under "optimized": the keys these rows have
 * carried since the files had one column per engine, so
 * `padtrace perf --compare` still matches every row against older
 * BENCH files.
 *
 * Results are wall-clock medians over repeated runs (see
 * perf_timing.h). Benchmark only Release builds (see README); the
 * default RelWithDebInfo build is fine for the ctest smoke, which
 * uses --quick to shrink repetitions and only asserts the harness
 * runs.
 *
 * Schema v3 adds engine self-profiling: the single_run_profiled row
 * re-times the standard attack with the EngineProfiler attached
 * (its delta against single_run is the profiling overhead — the
 * acceptance bar is <= 5%) and each profiled measurement carries a
 * "phases" object with the sampled per-phase seconds and lap counts
 * the run exported. `padtrace perf` renders and diffs these files.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "alert/engine.h"
#include "alert/rule.h"
#include "attack/attacker.h"
#include "battery/kibam.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "obs/prof.h"
#include "runner/experiment.h"
#include "runner/sweep_runner.h"
#include "sim/stats_registry.h"
#include "telemetry/receiver.h"
#include "telemetry/remote_write.h"
#include "util/json_writer.h"
#include "util/logging.h"

#include "perf_timing.h"

using namespace pad;
using namespace pad::bench;

namespace {

struct PerfOptions {
    bool quick = false;
    std::string jsonPath;
};

/** One engine phase's contribution to a profiled measurement. */
struct PhaseBreak {
    std::string name;
    /** Sampled seconds the run spent in the phase. */
    double seconds = 0.0;
    std::uint64_t laps = 0;
};

/** One row's measurement: raw timing plus the derived value. */
struct ProfileMeasure {
    TimingResult timing;
    /** Value in the benchmark's unit (ns/op or runs/s). */
    double value = 0.0;
    /** Per-phase breakdown; only profiled rows fill this (v3). */
    std::vector<PhaseBreak> phases;
};

struct BenchRow {
    std::string name;
    /** "ns_per_op", "ns_per_event", "ns_per_tick", "runs_per_sec". */
    std::string unit;
    /** True when larger values are better (throughput units). */
    bool higherIsBetter = false;
    /** JSON key of the measurement (see the file comment). */
    const char *column = "soa";
    ProfileMeasure measure;
};

// ---------------------------------------------------------------------
// Benchmark bodies. The component micro-rows time standalone objects;
// the engine-level rows drive engine::ClusterEngine.
// ---------------------------------------------------------------------

ProfileMeasure
benchKibamStep(const PerfOptions &opt)
{
    const int ops = opt.quick ? 20000 : 200000;
    const int reps = opt.quick ? 3 : 9;
    battery::Kibam model(
        battery::KibamParams{260640.0, 0.625, 4.5e-4});
    ProfileMeasure m;
    m.timing = timeIt(
        [&] {
            double acc = 0.0;
            for (int i = 0; i < ops; ++i) {
                acc += model.step(500.0, 0.1);
                if (model.depleted())
                    model.resetFull();
            }
            keep(acc);
        },
        /*warmup=*/1, reps);
    m.value = m.timing.medianSec / static_cast<double>(ops) * 1e9;
    return m;
}

/**
 * Fine-grained attack loop, ns per fine tick. Each repetition warms
 * a fresh engine up to the attack hour untimed, then times only
 * ClusterEngine::runAttack.
 */
ProfileMeasure
benchFineTick(const PerfOptions &opt, const runner::ClusterWorkload &cw)
{
    const double durationSec = opt.quick ? 30.0 : 120.0;
    const int reps = opt.quick ? 2 : 5;
    const core::DataCenterConfig cfg =
        runner::clusterConfig(core::SchemeKind::Pad);
    const double ticks =
        durationSec / ticksToSeconds(cfg.fineStep);

    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        engine::ClusterEngine dc(cfg, cw.workload.get());
        dc.runCoarseUntil(kTicksPerDay +
                          static_cast<Tick>(11.0 * kTicksPerHour));
        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        attack::TwoPhaseAttacker attacker(ac);
        core::AttackScenario sc;
        sc.targetPolicy = core::TargetPolicy::MostVulnerable;
        sc.durationSec = durationSec;
        const double t0 = nowSec();
        const core::AttackOutcome out = dc.runAttack(attacker, sc);
        samples.push_back(nowSec() - t0);
        keep(out.survivalSec);
    }
    ProfileMeasure m;
    m.timing = summarize(std::move(samples));
    m.value = m.timing.medianSec / ticks * 1e9;
    return m;
}

/** The standard Fig. 15/16 cluster-attack measurement, end to end. */
runner::Experiment
standardAttack(const runner::ClusterWorkload &cw, bool quick)
{
    runner::ClusterAttackSpec spec;
    if (quick)
        spec.durationSec = 60.0;
    return runner::Experiment::clusterAttack(spec, cw);
}

ProfileMeasure
benchSingleRun(const PerfOptions &opt,
               const runner::ClusterWorkload &cw)
{
    const int reps = opt.quick ? 2 : 9;
    runner::Experiment e = standardAttack(cw, opt.quick);
    ProfileMeasure m;
    m.timing = timeIt(
        [&] {
            const runner::ExperimentResult r = runner::runExperiment(e);
            keep(static_cast<double>(r.telemetry.detections));
        },
        /*warmup=*/1, reps);
    m.value = 1.0 / m.timing.medianSec;
    return m;
}

/**
 * benchSingleRun with the engine self-profiler attached: the delta
 * against single_run is the cost of profiling an entire run (<= 5%
 * is the acceptance bar). The phase breakdown of the last timed
 * repetition rides along so the JSON doubles as a `padtrace perf`
 * input.
 */
ProfileMeasure
benchSingleRunProfiled(const PerfOptions &opt,
                       const runner::ClusterWorkload &cw)
{
    const int reps = opt.quick ? 2 : 9;
    runner::Experiment e = standardAttack(cw, opt.quick);
    e.profileEngine = true;
    ProfileMeasure m;
    std::shared_ptr<sim::StatsRegistry> last;
    m.timing = timeIt(
        [&] {
            const runner::ExperimentResult r = runner::runExperiment(e);
            keep(static_cast<double>(r.telemetry.detections));
            last = r.stats;
        },
        /*warmup=*/1, reps);
    m.value = 1.0 / m.timing.medianSec;
    if (last) {
        for (std::size_t i = 0; i < obs::EngineProfiler::kPhaseCount;
             ++i) {
            PhaseBreak pb;
            pb.name = obs::EngineProfiler::phaseName(i);
            pb.seconds =
                last->lookup("engine.phase." + pb.name + ".seconds");
            pb.laps = last->lookupCounter("engine.phase." + pb.name +
                                          ".laps");
            m.phases.push_back(std::move(pb));
        }
    }
    return m;
}

/** Shipped default rules, loaded once from the source tree. */
std::shared_ptr<const alert::RuleSet>
defaultRules()
{
    std::string error;
    auto rules = alert::loadRulesFile(
        std::string(PAD_RULES_DIR) + "/pad_default.json", &error);
    if (!rules)
        PAD_FATAL("cannot load default alert rules: {}", error);
    return std::make_shared<const alert::RuleSet>(std::move(*rules));
}

/**
 * Alert-engine dispatch cost, ns per telemetry sample: a synthetic
 * stream cycling through the signal names the default rules watch
 * (plus unmatched ones, the common case) at 100 ms cadence.
 */
ProfileMeasure
benchAlertEval(const PerfOptions &opt)
{
    const int ops = opt.quick ? 20000 : 200000;
    const int reps = opt.quick ? 3 : 9;
    const auto rules = defaultRules();

    // Name table built outside the timed region: per-sample cost is
    // the engine's routing + evaluation, not string formatting.
    std::vector<std::string> names;
    for (int r = 0; r < 22; ++r) {
        names.push_back("rack" + std::to_string(r) + ".soc");
        names.push_back("rack" + std::to_string(r) + ".power");
    }
    names.push_back("pdu.power");
    names.push_back("detector.score");
    names.push_back("policy.level");

    ProfileMeasure m;
    m.timing = timeIt(
        [&] {
            alert::AlertEngine engine(*rules);
            Tick now = 0;
            for (int i = 0; i < ops; ++i) {
                const auto id = static_cast<std::uint32_t>(
                    static_cast<std::size_t>(i) % names.size());
                // The id overload is the hub's steady-state path.
                engine.onSample(id, names[id], now,
                                0.5 + 0.4 * ((i * 37 % 100) / 100.0));
                if (i % 10 == 9)
                    now += 100; // 100 ms sim step
            }
            engine.finalize(now);
            keep(static_cast<double>(engine.incidents().size()));
        },
        /*warmup=*/1, reps);
    m.value = m.timing.medianSec / static_cast<double>(ops) * 1e9;
    return m;
}

/**
 * benchSingleRun with full-resolution telemetry recording on. This
 * is the fair baseline for the alerting overhead claim: enabling
 * alerts necessarily turns the hub on, so the alert-engine cost is
 * single_run_alerts vs single_run_telemetry, not vs the bare run.
 */
ProfileMeasure
benchSingleRunTelemetry(const PerfOptions &opt,
                        const runner::ClusterWorkload &cw)
{
    const int reps = opt.quick ? 2 : 9;
    runner::Experiment e = standardAttack(cw, opt.quick);
    e.telemetryEnabled = true;
    ProfileMeasure m;
    m.timing = timeIt(
        [&] {
            const runner::ExperimentResult r = runner::runExperiment(e);
            keep(static_cast<double>(r.telemetry.detections));
        },
        /*warmup=*/1, reps);
    m.value = 1.0 / m.timing.medianSec;
    return m;
}

/**
 * benchSingleRun with online alerting attached: the delta against
 * single_run_telemetry is the alert-engine overhead (< 3% is the
 * acceptance bar; alerting is off the hot fine-tick path entirely
 * when no rules are loaded).
 */
ProfileMeasure
benchSingleRunAlerts(const PerfOptions &opt,
                     const runner::ClusterWorkload &cw)
{
    const int reps = opt.quick ? 2 : 9;
    runner::Experiment e = standardAttack(cw, opt.quick);
    e.telemetryEnabled = true;
    e.alertRules = defaultRules();
    ProfileMeasure m;
    m.timing = timeIt(
        [&] {
            const runner::ExperimentResult r = runner::runExperiment(e);
            keep(static_cast<double>(r.alerts->incidents().size()));
        },
        /*warmup=*/1, reps);
    m.value = 1.0 / m.timing.medianSec;
    return m;
}

/**
 * benchSingleRunTelemetry plus the push pipeline: every rep ships
 * its whole hub and stats dump to an in-process ReceiverServer over
 * real localhost TCP. The delta against single_run_telemetry is the
 * end-to-end export cost — snapshot, codec, framing, socket round
 * trip and receiver merge. Each rep uses a distinct source label so
 * the receiver's per-source dedup never short-circuits the merge.
 */
ProfileMeasure
benchSingleRunPush(const PerfOptions &opt,
                   const runner::ClusterWorkload &cw)
{
    const int reps = opt.quick ? 2 : 9;
    runner::Experiment e = standardAttack(cw, opt.quick);
    e.telemetryEnabled = true;

    telemetry::ReceiverServer rx(0);
    std::string error;
    if (!rx.start(&error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::exit(1);
    }
    int rep = 0;
    ProfileMeasure m;
    m.timing = timeIt(
        [&] {
            const runner::ExperimentResult r = runner::runExperiment(e);
            telemetry::RemoteWriteOptions rw;
            rw.port = rx.port();
            rw.source = "bench" + std::to_string(rep++);
            telemetry::RemoteWriteShipper shipper(std::move(rw),
                                                  r.hub.get());
            if (!shipper.start(&error)) {
                std::fprintf(stderr, "perfbench: %s\n", error.c_str());
                std::exit(1);
            }
            shipper.observe(0);
            shipper.finish(secondsToTicks(e.attack.durationSec),
                           r.stats.get());
            keep(static_cast<double>(
                shipper.counters().samplesShipped));
        },
        /*warmup=*/1, reps);
    rx.stop();
    m.value = 1.0 / m.timing.medianSec;
    return m;
}

ProfileMeasure
benchSweep(const PerfOptions &opt, const runner::ClusterWorkload &cw,
           int jobs)
{
    const int n = opt.quick ? 2 : 8;
    const int reps = opt.quick ? 1 : 3;
    std::vector<runner::Experiment> grid;
    grid.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        runner::Experiment e = standardAttack(cw, opt.quick);
        e.seed = static_cast<std::uint64_t>(i + 1);
            grid.push_back(e);
    }
    runner::SweepRunner runner(runner::SweepRunner::Options{jobs});
    ProfileMeasure m;
    m.timing = timeIt(
        [&] {
            const auto results = runner.run(grid);
            keep(static_cast<double>(results.size()));
        },
        /*warmup=*/opt.quick ? 0 : 1, reps);
    m.value = static_cast<double>(n) / m.timing.medianSec;
    return m;
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

void
printRow(const BenchRow &row)
{
    const ProfileMeasure &pm = row.measure;
    std::printf("%s\n", row.name.c_str());
    std::printf("  %12.2f %-12s (median %.6f s, min %.6f s, %d reps)\n",
                pm.value, row.unit.c_str(), pm.timing.medianSec,
                pm.timing.minSec, pm.timing.reps);
    double total = 0.0;
    for (const PhaseBreak &p : pm.phases)
        total += p.seconds;
    for (const PhaseBreak &p : pm.phases)
        std::printf("    %-16s %10.6f s %5.1f%% (%llu laps)\n",
                    p.name.c_str(), p.seconds,
                    total > 0.0 ? 100.0 * p.seconds / total : 0.0,
                    static_cast<unsigned long long>(p.laps));
    std::fflush(stdout);
}

/** Run @p body for one row, print it and return it. */
template <typename Fn>
BenchRow
runRow(const std::string &name, const std::string &unit,
       bool higherIsBetter, const char *column, Fn &&body)
{
    BenchRow row;
    row.name = name;
    row.unit = unit;
    row.higherIsBetter = higherIsBetter;
    row.column = column;
    row.measure = body();
    printRow(row);
    return row;
}

/** Component micro-row: times a standalone object. */
template <typename Fn>
BenchRow
runComponentRow(const std::string &name, Fn &&body)
{
    return runRow(name, "ns_per_op", false, "optimized",
                  std::forward<Fn>(body));
}

/** Engine-level row: drives the cluster engine. */
template <typename Fn>
BenchRow
runEngineRow(const std::string &name, const std::string &unit,
             bool higherIsBetter, Fn &&body)
{
    return runRow(name, unit, higherIsBetter, "soa",
                  std::forward<Fn>(body));
}

void
writeJson(const std::string &path, const PerfOptions &opt,
          const std::vector<BenchRow> &rows)
{
    std::ofstream os(path);
    if (!os)
        PAD_FATAL("cannot open {} for writing", path);
    JsonWriter w(os, 2);
    w.beginObject();
    w.key("schema").value("pad-perfbench-v3");
    w.key("quick").value(opt.quick);
    w.key("benchmarks").beginArray();
    for (const BenchRow &row : rows) {
        w.beginObject();
        w.key("name").value(row.name);
        w.key("unit").value(row.unit);
        w.key("higher_is_better").value(row.higherIsBetter);
        const ProfileMeasure &pm = row.measure;
        w.key(row.column).beginObject();
        w.key("value").value(pm.value);
        w.key("median_sec").value(pm.timing.medianSec);
        w.key("min_sec").value(pm.timing.minSec);
        w.key("mean_sec").value(pm.timing.meanSec);
        w.key("reps").value(pm.timing.reps);
        if (!pm.phases.empty()) {
            w.key("phases").beginObject();
            for (const PhaseBreak &p : pm.phases) {
                w.key(p.name).beginObject();
                w.key("seconds").value(p.seconds);
                w.key("laps").value(p.laps);
                w.endObject();
            }
            w.endObject();
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
    PAD_ASSERT(w.balanced());
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--json FILE] [--quick]\n",
        argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    PerfOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            opt.jsonPath = argv[++i];
        } else if (arg == "--quick") {
            opt.quick = true;
        } else {
            usage(argv[0]);
        }
    }

    std::printf("=== perfbench: engine hot-path benchmarks%s ===\n",
                opt.quick ? " (quick)" : "");

    // Shared read-only workload for the cluster benchmarks, built
    // once outside every timed region.
    const runner::ClusterWorkload cw =
        runner::makeClusterWorkload(3.0);

    std::vector<BenchRow> rows;
    rows.push_back(
        runComponentRow("kibam_step", [&] { return benchKibamStep(opt); }));
    rows.push_back(runEngineRow("fine_tick", "ns_per_tick", false, [&] {
        return benchFineTick(opt, cw);
    }));
    rows.push_back(
        runComponentRow("alert_eval", [&] { return benchAlertEval(opt); }));
    rows.push_back(runEngineRow("single_run", "runs_per_sec", true, [&] {
        return benchSingleRun(opt, cw);
    }));
    rows.push_back(
        runEngineRow("single_run_profiled", "runs_per_sec", true,
                     [&] { return benchSingleRunProfiled(opt, cw); }));
    rows.push_back(
        runEngineRow("single_run_telemetry", "runs_per_sec", true,
                     [&] { return benchSingleRunTelemetry(opt, cw); }));
    rows.push_back(
        runEngineRow("single_run_alerts", "runs_per_sec", true,
                     [&] { return benchSingleRunAlerts(opt, cw); }));
    rows.push_back(runEngineRow("single_run_push", "runs_per_sec", true,
                                [&] { return benchSingleRunPush(opt, cw); }));
    rows.push_back(runEngineRow("sweep_jobs1", "runs_per_sec", true, [&] {
        return benchSweep(opt, cw, 1);
    }));
    rows.push_back(runEngineRow("sweep_jobs2", "runs_per_sec", true, [&] {
        return benchSweep(opt, cw, 2);
    }));

    if (!opt.jsonPath.empty()) {
        writeJson(opt.jsonPath, opt, rows);
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }
    return 0;
}
