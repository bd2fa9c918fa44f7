/**
 * @file
 * Microbenchmarks for the simulator's hot paths: the KiBaM
 * closed-form step, the Algorithm-1 vDEB assignment, the breaker
 * thermal update, workload fine sampling, the server power model,
 * the telemetry push path's number codec
 * (shortest round-trip double formatting, pad-rw-v1 batch render and
 * parse, all per sample), the telemetry hub's record and merge
 * stages and the push shipper's cut at a short and a long ring.
 *
 * Built on the perfbench timing utilities (perf_timing.h): each
 * benchmark warms up untimed, then reports the median and minimum of
 * repeated timed runs instead of a single-shot wall clock. `--smoke`
 * shrinks iteration counts so the ctest smoke merely asserts the
 * benchmarks run; real numbers belong to Release builds (see README).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "alert/engine.h"
#include "alert/rule.h"
#include "battery/kibam.h"
#include "core/vdeb.h"
#include "power/circuit_breaker.h"
#include "power/server_power_model.h"
#include "telemetry/hub.h"
#include "telemetry/remote_write.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/json_writer.h"
#include "util/random.h"

#include "perf_timing.h"

using namespace pad;
using namespace pad::bench;

namespace {

/** Iteration scale: --smoke divides every op count by this. */
int g_scale = 1;

int
ops(int full)
{
    return std::max(1, full / g_scale);
}

void
report(const char *name, const TimingResult &t, int opsPerRep)
{
    std::printf("%-28s %10.1f ns/op   (median %.6f s, min %.6f s, "
                "%d reps x %d ops)\n",
                name, t.medianSec / opsPerRep * 1e9, t.medianSec,
                t.minSec, t.reps, opsPerRep);
}

void
benchKibamStep()
{
    const int n = ops(200000);
    battery::Kibam model(
        battery::KibamParams{260640.0, 0.625, 4.5e-4});
    const TimingResult t = timeIt(
        [&] {
            double acc = 0.0;
            for (int i = 0; i < n; ++i) {
                // Reset before a step could cross depletion, so the
                // loop times the closed-form step, not the bisection.
                if (model.maxSustainablePower(0.1) < 500.0)
                    model.resetFull();
                acc += model.step(500.0, 0.1);
            }
            keep(acc);
        },
        1, 5);
    report("kibam_step", t, n);
}

void
benchKibamMaxSustainable()
{
    const int n = ops(200000);
    battery::Kibam model(
        battery::KibamParams{260640.0, 0.625, 4.5e-4});
    model.setSoc(0.6);
    const TimingResult t = timeIt(
        [&] {
            double acc = 0.0;
            for (int i = 0; i < n; ++i)
                acc += model.maxSustainablePower(1.0);
            keep(acc);
        },
        1, 5);
    report("kibam_max_sustainable", t, n);
}

void
benchVdebAssign(std::size_t racks)
{
    const int n = ops(20000);
    core::VdebController ctl(core::VdebConfig{800.0});
    std::vector<Joules> soc(racks);
    for (std::size_t i = 0; i < racks; ++i)
        soc[i] = 1000.0 + 137.0 * static_cast<double>(i % 17);
    core::VdebAssignment plan;
    const TimingResult t = timeIt(
        [&] {
            double acc = 0.0;
            for (int i = 0; i < n; ++i) {
                ctl.assignInto(soc, 90000.0, 86000.0, plan);
                acc += plan.shaveTarget;
            }
            keep(acc);
        },
        1, 5);
    char name[64];
    std::snprintf(name, sizeof(name), "vdeb_assign/%zu", racks);
    report(name, t, n);
}

void
benchBreakerObserve()
{
    const int n = ops(200000);
    power::CircuitBreakerConfig cfg;
    cfg.ratedPower = 5000.0;
    power::CircuitBreaker cb("bm.cb", cfg);
    const TimingResult t = timeIt(
        [&] {
            int trips = 0;
            for (int i = 0; i < n; ++i) {
                if (cb.observe(5200.0, 0.1))
                    ++trips;
                if (cb.tripped())
                    cb.reset();
            }
            keep(static_cast<double>(trips));
        },
        1, 5);
    report("breaker_observe", t, n);
}

void
benchWorkloadFineSample()
{
    const int n = ops(200000);
    trace::SyntheticTraceConfig tc;
    tc.machines = 220;
    tc.days = 1.0;
    const auto events = trace::SyntheticGoogleTrace(tc).generate();
    trace::Workload w(events, tc.machines, kTicksPerDay);
    const TimingResult t = timeIt(
        [&] {
            double acc = 0.0;
            Tick tk = 0;
            int machine = 0;
            for (int i = 0; i < n; ++i) {
                acc += w.utilFine(machine, tk);
                tk = (tk + 137) % kTicksPerDay;
                machine = (machine + 1) % tc.machines;
            }
            keep(acc);
        },
        1, 5);
    report("workload_fine_sample", t, n);
}

void
benchServerPowerModel()
{
    const int n = ops(200000);
    power::ServerPowerModel model(power::ServerPowerConfig{});
    const TimingResult t = timeIt(
        [&] {
            double acc = 0.0;
            double u = 0.0;
            for (int i = 0; i < n; ++i) {
                acc += model.power(u, 0.9);
                u += 0.001;
                if (u > 1.0)
                    u = 0.0;
            }
            keep(acc);
        },
        1, 5);
    report("server_power_model", t, n);
}

/**
 * Telemetry-like values: rack powers around 50 kW carrying full
 * double precision, so most need 15-17 significant digits.
 */
std::vector<double>
telemetryValues(std::size_t n)
{
    const CounterRng rng(0x7e1e);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = 40000.0 + 20000.0 * rng.unitAt(i);
    return values;
}

void
benchFormatDouble()
{
    const int n = ops(200000);
    const std::vector<double> values = telemetryValues(4096);
    const TimingResult t = timeIt(
        [&] {
            std::size_t chars = 0;
            for (int i = 0; i < n; ++i)
                chars += JsonWriter::formatDouble(values[i % 4096]).size();
            keep(static_cast<double>(chars));
        },
        1, 5);
    report("format_double", t, n);
}

/** One 22-series pad-rw-v1 batch of @p perSeries samples each. */
telemetry::RwBatch
rwBenchBatch(int perSeries)
{
    const std::vector<double> values =
        telemetryValues(static_cast<std::size_t>(22 * perSeries));
    telemetry::RwBatch b;
    b.source = "bench";
    for (int r = 0; r < 22; ++r) {
        telemetry::RwSeriesChunk chunk;
        chunk.name = "rack" + std::to_string(r) + ".power";
        for (int k = 0; k < perSeries; ++k)
            chunk.samples.push_back(
                {Tick{k} * 100, values[r * perSeries + k]});
        b.series.push_back(std::move(chunk));
    }
    return b;
}

void
benchRwRender()
{
    const telemetry::RwBatch b = rwBenchBatch(ops(20000) / 22 + 1);
    const int samples = static_cast<int>(b.sampleCount());
    const TimingResult t = timeIt(
        [&] {
            keep(static_cast<double>(
                telemetry::renderRwBatchLine(b).size()));
        },
        1, 5);
    report("rw_render", t, samples);
}

void
benchRwParse()
{
    const telemetry::RwBatch b = rwBenchBatch(ops(20000) / 22 + 1);
    const int samples = static_cast<int>(b.sampleCount());
    const std::string line = telemetry::renderRwBatchLine(b);
    const TimingResult t = timeIt(
        [&] {
            const auto back = telemetry::parseRwBatchLine(line);
            keep(back ? static_cast<double>(back->sampleCount()) : 0.0);
        },
        1, 5);
    report("rw_parse", t, samples);
}

/** The 93 series names of a 22-rack engine's telemetry row. */
std::vector<std::string>
engineRowNames()
{
    std::vector<std::string> names;
    for (int r = 0; r < 22; ++r)
        for (const char *leaf : {".power", ".draw", ".soc", ".udeb_soc"})
            names.push_back("rack" + std::to_string(r) + leaf);
    for (const char *name : {"pdu.power", "pdu.draw", "policy.level",
                             "shed.servers", "detector.score"})
        names.push_back(name);
    return names;
}

/**
 * Sample ticks of one telemetry_push-sized run: 420 coarse steps 300 s
 * apart, then a 200 s attack sampled every second.
 */
std::vector<Tick>
runTicks()
{
    std::vector<Tick> ticks;
    const Tick coarse = 300 * kTicksPerSecond;
    for (int k = 0; k < ops(420); ++k)
        ticks.push_back(Tick{k} * coarse);
    const Tick attack = static_cast<Tick>(ticks.size()) * coarse;
    for (int k = 0; k < ops(200); ++k)
        ticks.push_back(attack + Tick{k} * kTicksPerSecond);
    return ticks;
}

/** Fresh hubs per timed repetition; each takes one run's samples. */
constexpr int kHubRuns = 4;

/**
 * The engine's record stage: one 93-series row per sample tick of a
 * run, recorded by series id into a fresh hub, optionally with the
 * default alert rules listening: ns per sample.
 */
void
benchHubRecord(bool withRules)
{
    const std::vector<std::string> names = engineRowNames();
    const std::vector<Tick> ticks = runTicks();
    const std::vector<double> values = telemetryValues(4096);
    std::string error;
    const auto rules = alert::loadRulesFile(
        std::string(PAD_RULES_DIR) + "/pad_default.json", &error);
    if (!rules) {
        std::fprintf(stderr, "micro_benchmarks: %s\n", error.c_str());
        std::exit(1);
    }
    const TimingResult t = timeIt(
        [&] {
            for (int run = 0; run < kHubRuns; ++run) {
                telemetry::TelemetryHub hub;
                alert::AlertEngine alerts(*rules);
                if (withRules)
                    hub.setListener(&alerts);
                std::vector<std::uint32_t> ids;
                for (const std::string &name : names)
                    ids.push_back(hub.seriesId(name));
                std::vector<double> row(ids.size());
                std::size_t next = 0;
                for (const Tick when : ticks) {
                    for (double &v : row)
                        v = values[next++ % values.size()];
                    hub.recordRow(when, ids.data(), row.data(), row.size());
                }
                hub.setListener(nullptr);
                keep(static_cast<double>(hub.size()));
            }
        },
        1, 5);
    report(withRules ? "hub_record/rules" : "hub_record", t,
           kHubRuns * static_cast<int>(ticks.size() * names.size()));
}

/**
 * The receiver's merge stage: one shipped run (93 series, one sample
 * per tick of runTicks()) recorded chunk by chunk by name, under a
 * source prefix, into a fresh fleet hub: ns per sample.
 */
void
benchHubMerge()
{
    const std::vector<std::string> names = engineRowNames();
    const std::vector<Tick> ticks = runTicks();
    const std::vector<double> values = telemetryValues(4096);
    std::vector<telemetry::Sample> chunk;
    for (const Tick when : ticks)
        chunk.push_back({when, values[chunk.size() % values.size()]});
    const TimingResult t = timeIt(
        [&] {
            for (int run = 0; run < kHubRuns; ++run) {
                telemetry::TelemetryHub fleet;
                for (const std::string &name : names)
                    fleet.recordMany("fleet.run0." + name, chunk.data(),
                                     chunk.size());
                keep(static_cast<double>(fleet.size()));
            }
        },
        1, 5);
    report("hub_merge", t,
           kHubRuns * static_cast<int>(chunk.size() * names.size()));
}

/**
 * The push shipper's cut (RemoteWriteShipper::snapshotNow): one new
 * 93-series row recorded, then the samples past the cursors taken,
 * with every series' ring full at @p ring samples: ns per cut. With
 * @p wholeRings the cut copies every ring instead (rawSnapshot(), the
 * shape of the old cut), whose cost grows with the ring.
 */
void
benchShipperCut(std::size_t ring, bool wholeRings)
{
    const std::vector<std::string> names = engineRowNames();
    telemetry::TimeSeriesOptions opts;
    opts.rawCapacity = ring;
    telemetry::TelemetryHub hub(opts);
    std::vector<std::uint32_t> ids;
    for (const std::string &name : names)
        ids.push_back(hub.seriesId(name));
    const std::vector<double> row(ids.size(), 0.5);
    Tick when = 0;
    for (std::size_t i = 0; i < ring; ++i)
        hub.recordRow(when++, ids.data(), row.data(), row.size());
    // The shipper's cut: samples past the cursors, then advance them.
    std::vector<std::uint64_t> cursors(ids.size(), 0);
    const auto cut = [&] {
        const auto fresh = hub.rawSince(cursors);
        for (const telemetry::TelemetryHub::RawSeries &s : fresh)
            cursors[s.id] = s.totalSamples;
        return fresh.size();
    };
    cut();
    const int cuts = ops(200);
    const TimingResult t = timeIt(
        [&] {
            std::size_t taken = 0;
            for (int i = 0; i < cuts; ++i) {
                hub.recordRow(when++, ids.data(), row.data(), row.size());
                taken += wholeRings ? hub.rawSnapshot().size() : cut();
            }
            keep(static_cast<double>(taken));
        },
        1, 5);
    const std::string name = std::string(wholeRings ? "raw_snapshot"
                                                    : "shipper_cut") +
                             "/ring" + std::to_string(ring);
    report(name.c_str(), t, cuts);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            g_scale = 100;
        } else {
            std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
            return 2;
        }
    }

    std::printf("=== micro benchmarks%s ===\n",
                g_scale > 1 ? " (smoke)" : "");
    benchKibamStep();
    benchKibamMaxSustainable();
    benchVdebAssign(22);
    benchVdebAssign(220);
    benchVdebAssign(2200);
    benchBreakerObserve();
    benchWorkloadFineSample();
    benchServerPowerModel();
    benchFormatDouble();
    benchRwRender();
    benchRwParse();
    benchHubRecord(false);
    benchHubRecord(true);
    benchHubMerge();
    for (const bool wholeRings : {false, true})
        for (const std::size_t ring : {std::size_t{64}, std::size_t{4096}})
            benchShipperCut(ring, wholeRings);
    return 0;
}
