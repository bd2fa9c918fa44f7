/**
 * @file
 * padbench: the repository benchmark driver.
 *
 * One invocation measures one workload for a fixed wall-clock budget
 * and prints every metric by name and unit, a digest of the simulated
 * statistics, and, as its last line, one JSON result object:
 *
 *   padbench --workload attack_grid --seed 7 --seconds 20 --trace 0
 *
 * Workloads (closed loop: every caller waits for its result):
 *
 *  - attack_grid:    the Fig. 15 grid (3 viruses x 2 styles x 6
 *                    schemes, 1600 s horizon) through SweepRunner
 *                    with 2 workers, one pass per derived seed.
 *  - coarse_month:   30-day ClusterCoarse runs (PS / vDEB / PAD x
 *                    online / offline charging, history on) through
 *                    SweepRunner with one worker.
 *  - telemetry_push: ClusterAttack runs with telemetry and the default
 *                    alert rules, each shipped through its own
 *                    RemoteWriteShipper to one in-process
 *                    ReceiverServer over localhost TCP.
 *
 * The driver touches the simulator only through public entry points
 * and never names an engine backend: every job runs with the default
 * Experiment::backend of the commit under test.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 spends half the
 * budget on the same untraced loop, then re-runs the same jobs
 * decomposed into public calls with a span around each call, and
 * reports per-layer metrics, self times, the residual and the tracing
 * overhead. The spans are written as Chrome-trace JSON at the end.
 *
 * Every run also checks the program's outputs (determinism across
 * repeats and worker counts, physical bounds, exactly-once delivery);
 * any failed check is counted in "failed" and makes the exit code 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "alert/engine.h"
#include "alert/rule.h"
#include "attack/power_virus.h"
#include "attack/virus_trace.h"
#include "core/datacenter.h"
#include "core/schemes.h"
#include "engine/backend.h"
#include "obs/tracer.h"
#include "runner/experiment.h"
#include "runner/sweep_runner.h"
#include "sim/stats_registry.h"
#include "telemetry/hub.h"
#include "telemetry/receiver.h"
#include "telemetry/remote_write.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"

using namespace pad;

namespace {

// ---------------------------------------------------------------------
// Fixed workload shape
// ---------------------------------------------------------------------

/** attack_grid worker count: leaves two of four cores for the OS. */
constexpr int kGridWorkers = 2;
/**
 * coarse_month worker count. The coarse loop streams the 30-day
 * workload grid; two workers sharing the cache made run-to-run
 * spread about 10%, one worker about 2%.
 */
constexpr int kMonthWorkers = 1;
/** Fig. 15 horizon. */
constexpr double kGridHorizonSec = 1600.0;
/**
 * Attack window of one telemetry_push run: about 56k samples shipped
 * per run, short enough for 100+ runs per measurement.
 */
constexpr double kPushWindowSec = 200.0;
/** Simulated length of one coarse_month run. */
constexpr double kMonthDays = 30.0;
/** Shared-input rebuilds per run; setup_s is their median. */
constexpr int kSetupReps = 9;

// ---------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Seed of stream @p stream under the command-line seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream)
{
    return splitmix(seed ^ splitmix(stream + 0x5eed));
}

/** 64-bit FNV-1a, for output digests. */
struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *p, std::size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 0x100000001b3ULL;
        }
    }
    void text(const std::string &s) { bytes(s.data(), s.size()); }
    void num(double v) { bytes(&v, sizeof v); }
    void num(std::uint64_t v) { bytes(&v, sizeof v); }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/** Linear-interpolated quantile (q in [0,1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Tail latency robust to bursts of host contention: the median of the
 * p90s of three consecutive thirds of @p samples (in run order). A
 * burst inflates one third's p90 and leaves the median alone.
 */
double
slicedP90(const std::vector<double> &samples)
{
    const std::size_t n = samples.size();
    std::vector<double> p90s;
    for (std::size_t k = 0; k < 3; ++k)
        p90s.push_back(quantile(
            std::vector<double>(samples.begin() + k * n / 3,
                                samples.begin() + (k + 1) * n / 3),
            0.9));
    return median(p90s);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
statsText(const sim::StatsRegistry &stats)
{
    std::ostringstream os;
    stats.dump(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Outcome bookkeeping
// ---------------------------------------------------------------------

/**
 * Attempted and failed operations, and printed metrics. An operation
 * (one job, one shipped run, one repeat) fails when any of its checks
 * fails; a failed check outside an operation counts as one on its own.
 */
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;

    /** Begin one operation. */
    void
    attempt()
    {
        ++attempted;
        open_ = true;
        openFailed_ = false;
    }

    /** End the current operation. */
    void done() { open_ = false; }

    /** Record one failed check; keeps the first few messages. */
    void
    fail(const std::string &what)
    {
        if (!open_) {
            ++attempted;
            ++failed;
        } else if (!openFailed_) {
            ++failed;
            openFailed_ = true;
        }
        if (failures.size() < 20)
            failures.push_back(what);
    }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
    }

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

  private:
    bool open_ = false;
    bool openFailed_ = false;
};

// ---------------------------------------------------------------------
// Shared inputs
// ---------------------------------------------------------------------

struct Setup {
    runner::ClusterWorkload cw;
    std::shared_ptr<const alert::RuleSet> rules;
    /** Wall seconds of each rebuild. */
    std::vector<double> reps;
};

std::shared_ptr<const alert::RuleSet>
loadRules(const std::string &path)
{
    std::string error;
    auto rules = alert::loadRulesFile(path, &error);
    if (!rules) {
        std::fprintf(stderr, "padbench: cannot load rules %s: %s\n",
                     path.c_str(), error.c_str());
        std::exit(2);
    }
    return std::make_shared<const alert::RuleSet>(std::move(*rules));
}

/**
 * Build the shared inputs kSetupReps times (trace generation,
 * Workload grid, rules load) and keep the last; each rebuild must
 * produce the same event stream.
 */
Setup
buildSetup(double days, std::uint64_t traceSeed, const std::string &rules,
           Outcome &out)
{
    Setup s;
    std::string firstDigest;
    for (int i = 0; i < kSetupReps; ++i) {
        s.cw = {};
        const auto t0 = Clock::now();
        s.cw = runner::makeClusterWorkload(days, 0.0, traceSeed);
        s.rules = loadRules(rules);
        s.reps.push_back(secondsSince(t0));

        out.attempt();
        Digest d;
        for (const auto &ev : s.cw.events) {
            d.num(static_cast<std::uint64_t>(ev.start));
            d.num(static_cast<std::uint64_t>(ev.end));
            d.num(static_cast<std::uint64_t>(ev.machine));
            d.num(ev.cpuRate);
        }
        if (i == 0)
            firstDigest = d.hex();
        out.check(d.hex() == firstDigest,
                  "setup: trace rebuild differs from the first build");
        out.done();
    }
    return s;
}

// ---------------------------------------------------------------------
// Span log for the traced run
// ---------------------------------------------------------------------

/** Small dense index of the calling thread (0 = first seen). */
int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next++;
    return index;
}

/**
 * In-memory span store. A span is (name, experiment id, worker, start,
 * end); the root span of an experiment is named "job" and every other
 * span of that id inside it is one layer call.
 */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        std::uint64_t id = 0;
        int tid = 0;
        double start = 0.0;
        double end = 0.0;
    };

    SpanLog() : origin_(Clock::now()) {}

    double
    now() const
    {
        return secondsSince(origin_);
    }

    void
    add(Span s)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

    /** Write every span as Chrome-trace JSON (loads in Perfetto). */
    bool
    writeChrome(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        bool first = true;
        for (const Span &s : spans()) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                          "\"ts\":%.3f,\"dur\":%.3f",
                          s.tid, s.start * 1e6, (s.end - s.start) * 1e6);
            os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
               << "\"," << buf << ",\"args\":{\"id\":" << s.id << "}}";
            first = false;
        }
        os << "\n]}\n";
        return static_cast<bool>(os);
    }

  private:
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span; a null log makes it free. */
class Scoped
{
  public:
    Scoped(SpanLog *log, const char *name, std::uint64_t id)
        : log_(log), name_(name), id_(id),
          start_(log ? log->now() : 0.0)
    {
    }
    ~Scoped()
    {
        if (log_)
            log_->add({name_, id_, threadIndex(), start_, log_->now()});
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog *log_;
    const char *name_;
    std::uint64_t id_;
    double start_;
};

/** Per-layer self times of the "job" roots, from the span log. */
struct SelfTimes {
    /** Mean seconds per job of each child layer. */
    std::map<std::string, double> layer;
    double wall = 0.0;     ///< mean job wall
    double residual = 0.0; ///< mean wall minus child spans
    std::size_t jobs = 0;
};

SelfTimes
selfTimes(const std::vector<SpanLog::Span> &spans)
{
    struct Job {
        double start = 0.0;
        double end = 0.0;
        double children = 0.0;
        std::map<std::string, double> layer;
    };
    std::map<std::uint64_t, Job> jobs;
    for (const auto &s : spans)
        if (s.name == "job") {
            jobs[s.id].start = s.start;
            jobs[s.id].end = s.end;
        }
    for (const auto &s : spans) {
        auto it = jobs.find(s.id);
        // Probes share their job's id but run outside its root span.
        if (s.name == "job" || it == jobs.end() ||
            s.start < it->second.start || s.end > it->second.end)
            continue;
        // Layer spans never nest inside each other, so a child's
        // self time is its duration.
        it->second.layer[s.name] += s.end - s.start;
        it->second.children += s.end - s.start;
    }
    SelfTimes out;
    out.jobs = jobs.size();
    if (jobs.empty())
        return out;
    const double n = static_cast<double>(jobs.size());
    for (const auto &[id, j] : jobs) {
        out.wall += (j.end - j.start) / n;
        out.residual += (j.end - j.start - j.children) / n;
        for (const auto &[name, s] : j.layer)
            out.layer[name] += s / n;
    }
    return out;
}

// ---------------------------------------------------------------------
// Traced re-execution of one experiment through public calls
// ---------------------------------------------------------------------

/** What the traced replica of a job produced. */
struct TracedJob {
    double survivalSec = 0.0;
    double throughput = 0.0;
    int spikes = 0;
    std::uint64_t coarseSteps = 0;
    std::uint64_t fineTicks = 0;
    /** Coarse kind: SoC history, copied out as the runner does. */
    std::vector<std::vector<double>> socHistory;
    std::shared_ptr<telemetry::TelemetryHub> hub;
    std::shared_ptr<sim::StatsRegistry> stats;
    std::size_t incidents = 0;
};

/** Simulated attack-window seconds a cluster-attack result covers. */
double
attackWindowSec(const runner::Experiment &e,
                const sim::StatsRegistry &stats)
{
    const double start = ticksToSeconds(
        kTicksPerDay +
        static_cast<Tick>(e.attack.attackHour * kTicksPerHour));
    return stats.lookup("sim.seconds") - start;
}

/**
 * Re-run a ClusterAttack or ClusterCoarse experiment as the runner
 * does, one public engine call at a time, with a span around each.
 * Alerting is attached online exactly as runExperiment attaches it.
 * The caller wraps the call in the experiment's "job" root span.
 */
TracedJob
runTraced(const runner::Experiment &e, SpanLog &log, std::uint64_t id)
{
    const bool attackKind = e.kind == runner::ExperimentKind::ClusterAttack;
    core::DataCenterConfig cfg;
    if (attackKind) {
        cfg = e.attack.config ? *e.attack.config
                              : runner::clusterConfig(e.attack.scheme);
        if (!e.attack.config) {
            cfg.budgetFraction = e.attack.budgetFraction;
            cfg.clusterBudgetFraction = e.attack.clusterBudgetFraction;
        }
    } else {
        cfg = e.coarse.config ? *e.coarse.config
                              : runner::clusterConfig(e.coarse.scheme);
    }
    if (e.seed != runner::kSpecSeed)
        cfg.seed = e.seed;

    TracedJob out;
    std::unique_ptr<engine::ClusterEngine> dc;
    {
        Scoped s(&log, "engine.create", id);
        dc = engine::makeClusterEngine(e.backend, cfg,
                                       e.workload->workload.get());
    }

    std::shared_ptr<alert::AlertEngine> alerts;
    std::unique_ptr<alert::AlertTraceSink> feed;
    std::optional<obs::TraceScope> scope;
    if (e.telemetryEnabled || e.alertRules) {
        out.hub = std::make_shared<telemetry::TelemetryHub>();
        dc->setTelemetry(out.hub.get());
    }
    if (e.alertRules) {
        alerts = std::make_shared<alert::AlertEngine>(*e.alertRules);
        out.hub->setListener(alerts.get());
        feed = std::make_unique<alert::AlertTraceSink>(
            *alerts, obs::currentTraceSink());
        scope.emplace(feed.get(), obs::currentTraceJob());
    }

    const Tick until =
        attackKind
            ? kTicksPerDay +
                  static_cast<Tick>(e.attack.attackHour * kTicksPerHour)
            : static_cast<Tick>(e.coarse.untilHours * kTicksPerHour);
    {
        Scoped s(&log, "engine.coarse", id);
        if (!attackKind)
            dc->setRecordHistory(e.coarse.recordHistory);
        dc->runCoarseUntil(until);
    }
    out.coarseSteps = static_cast<std::uint64_t>(dc->now() / cfg.coarseStep);

    if (attackKind) {
        const runner::ClusterAttackSpec &spec = e.attack;
        attack::AttackerConfig ac;
        ac.controlledNodes = spec.nodes;
        ac.kind = spec.kind;
        ac.train = spec.train;
        ac.prepareSec = spec.prepareSec;
        ac.maxDrainSec = spec.maxDrainSec;
        ac.learnRounds = spec.learnRounds;
        ac.recoverSec = spec.recoverSec;
        if (e.seed != runner::kSpecSeed)
            ac.seed = splitmix(e.seed ^ 0xa77ac4);
        attack::TwoPhaseAttacker attacker(ac);

        core::AttackScenario sc;
        {
            Scoped s(&log, "core.victim_rank", id);
            const double window = spec.rankWindowSec > 0.0
                                      ? spec.rankWindowSec
                                      : spec.durationSec;
            const Tick from = dc->now();
            const Tick to = from + secondsToTicks(window);
            sc.targetPolicy = core::TargetPolicy::Fixed;
            sc.targetRack = core::rackByLoadPercentile(
                *e.workload->workload, cfg, from, to, spec.victimPct);
            for (int i = 1; i < spec.victimRacks; ++i) {
                const double pct = std::max(
                    0.0, spec.victimPct - 5.0 * static_cast<double>(i));
                const int rack = core::rackByLoadPercentile(
                    *e.workload->workload, cfg, from, to, pct);
                if (rack != sc.targetRack &&
                    std::find(sc.extraVictimRacks.begin(),
                              sc.extraVictimRacks.end(),
                              rack) == sc.extraVictimRacks.end())
                    sc.extraVictimRacks.push_back(rack);
            }
            sc.durationSec = spec.durationSec;
            sc.dutyCycle = spec.dutyCycle;
        }
        Scoped s(&log, "engine.attack", id);
        const Tick before = dc->now();
        const core::AttackOutcome o = dc->runAttack(attacker, sc);
        out.fineTicks =
            static_cast<std::uint64_t>((dc->now() - before) / cfg.fineStep);
        out.survivalSec = o.survivalSec;
        out.throughput = o.throughput;
        out.spikes = o.spikesLaunched;
    } else {
        Scoped s(&log, "engine.history", id);
        out.socHistory = dc->socHistory();
    }
    {
        Scoped s(&log, "engine.export_stats", id);
        out.stats = std::make_shared<sim::StatsRegistry>();
        dc->exportStats(*out.stats);
    }
    if (alerts) {
        Scoped s(&log, "alert.finalize", id);
        out.hub->setListener(nullptr);
        scope.reset();
        alerts->finalize(dc->now());
        out.incidents = alerts->incidents().size();
    }
    return out;
}

// ---------------------------------------------------------------------
// Per-layer metric table (identical names on every workload)
// ---------------------------------------------------------------------

/** Engine profiler phases read by name from the profiled probe. */
const char *const kPhases[] = {"demand_eval", "kibam_batch", "udeb_shave",
                               "detector", "telemetry_flush",
                               "shard_merge"};

struct LayerTable {
    std::vector<std::pair<std::string, std::string>> order; // name, unit
    std::map<std::string, double> value;

    LayerTable()
    {
        const std::pair<const char *, const char *> fixed[] = {
            {"trace.generate_s", "s"},
            {"trace.workload_build_s", "s"},
            {"trace.events", "count"},
            {"engine.create_s", "s"},
            {"engine.coarse_s", "s"},
            {"engine.coarse_steps", "count"},
            {"engine.coarse_ns_per_step", "ns"},
            {"engine.attack_s", "s"},
            {"engine.fine_ticks", "count"},
            {"engine.fine_ns_per_tick", "ns"},
            {"engine.export_stats_s", "s"},
            {"engine.cache_hit_ratio", "ratio"},
            {"core.victim_rank_s", "s"},
            {"runner.parallel_eff", "ratio"},
            {"runner.tail_idle_s", "s"},
            {"telemetry.samples", "count"},
            {"telemetry.batches", "count"},
            {"telemetry.bytes", "bytes"},
            {"telemetry.snapshot_s", "s"},
            {"telemetry.encode_s", "s"},
            {"telemetry.finish_s", "s"},
            {"telemetry.rx_drain_s", "s"},
            {"telemetry.ns_per_sample", "ns"},
            {"telemetry.rx_samples", "count"},
            {"telemetry.dropped", "count"},
            {"telemetry.protocol_errors", "count"},
            {"telemetry.render_metrics_s", "s"},
            {"telemetry.push_samples_per_s", "1/s"},
            {"telemetry.export_p50_ms", "ms"},
            {"telemetry.export_p90_ms", "ms"},
            {"alert.finalize_s", "s"},
            {"alert.replay_ns_per_sample", "ns"},
            {"alert.incidents", "count"},
            {"attack.spikes_launched", "count"},
            {"core.detections", "count"},
            {"core.overloads", "count"},
            {"core.shed_events", "count"},
            {"bench.job_wall_s", "s"},
            {"bench.residual_s", "s"},
            {"bench.residual_frac", "ratio"},
            {"bench.trace_overhead_frac", "ratio"},
            {"bench.traced_jobs", "count"},
        };
        for (const auto &[n, u] : fixed)
            order.emplace_back(n, u);
        for (const char *p : kPhases) {
            order.emplace_back(std::string("engine.phase.") + p + ".seconds",
                               "s");
            order.emplace_back(std::string("engine.phase.") + p + ".laps",
                               "count");
        }
    }

    void
    set(const std::string &name, double v)
    {
        value[name] = v;
    }

    void
    emit(Outcome &out) const
    {
        for (const auto &[name, unit] : order) {
            auto it = value.find(name);
            out.metric(name, it == value.end() ? 0.0 : it->second, unit);
        }
    }
};

/** Read the profiler's engine.* stats by name; absent names read 0. */
void
readProfilerStats(const sim::StatsRegistry &stats, double jobs,
                  LayerTable &layers)
{
    const double hits =
        static_cast<double>(stats.lookupCounter("engine.cache_hits"));
    const double misses =
        static_cast<double>(stats.lookupCounter("engine.cache_misses"));
    layers.set("engine.cache_hit_ratio",
               hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    for (const char *p : kPhases) {
        const std::string base = std::string("engine.phase.") + p;
        layers.set(base + ".seconds", stats.lookup(base + ".seconds") / jobs);
        layers.set(base + ".laps",
                   static_cast<double>(stats.lookupCounter(base + ".laps")) /
                       jobs);
    }
}

/** Engine-layer means from traced jobs and the span self times. */
void
setEngineLayers(const std::vector<TracedJob> &jobs, const SelfTimes &st,
                LayerTable &layers)
{
    double coarseSteps = 0.0, fineTicks = 0.0;
    for (const TracedJob &j : jobs) {
        coarseSteps += static_cast<double>(j.coarseSteps);
        fineTicks += static_cast<double>(j.fineTicks);
    }
    const double n = std::max<double>(1.0, static_cast<double>(jobs.size()));
    coarseSteps /= n;
    fineTicks /= n;
    auto self = [&](const char *name) {
        auto it = st.layer.find(name);
        return it == st.layer.end() ? 0.0 : it->second;
    };
    layers.set("engine.create_s", self("engine.create"));
    layers.set("engine.coarse_s", self("engine.coarse"));
    layers.set("engine.coarse_steps", coarseSteps);
    layers.set("engine.coarse_ns_per_step",
               coarseSteps > 0.0 ? self("engine.coarse") / coarseSteps * 1e9
                                 : 0.0);
    layers.set("engine.attack_s", self("engine.attack"));
    layers.set("engine.fine_ticks", fineTicks);
    layers.set("engine.fine_ns_per_tick",
               fineTicks > 0.0 ? self("engine.attack") / fineTicks * 1e9
                               : 0.0);
    layers.set("engine.export_stats_s", self("engine.export_stats"));
    layers.set("core.victim_rank_s", self("core.victim_rank"));
    layers.set("alert.finalize_s", self("alert.finalize"));
    layers.set("telemetry.finish_s", self("telemetry.finish"));
    layers.set("telemetry.rx_drain_s", self("telemetry.rx_drain"));
    layers.set("bench.job_wall_s", st.wall);
    layers.set("bench.residual_s", st.residual);
    layers.set("bench.residual_frac",
               st.wall > 0.0 ? st.residual / st.wall : 0.0);
    layers.set("bench.traced_jobs", static_cast<double>(st.jobs));
}

/** Rebuild the shared inputs in their two public steps, traced. */
void
traceSetup(const Setup &setup, SpanLog &log, LayerTable &layers)
{
    const trace::SyntheticTraceConfig &tc = setup.cw.traceConfig;
    std::vector<trace::TaskEvent> events;
    double t0 = log.now();
    {
        Scoped s(&log, "trace.generate", 0);
        events = trace::SyntheticGoogleTrace(tc).generate();
    }
    layers.set("trace.generate_s", log.now() - t0);
    t0 = log.now();
    {
        Scoped s(&log, "trace.workload_build", 0);
        trace::Workload w(events, tc.machines,
                          static_cast<Tick>(tc.days * kTicksPerDay));
    }
    layers.set("trace.workload_build_s", log.now() - t0);
    layers.set("trace.events", static_cast<double>(events.size()));
}

/** Print the self-time breakdown and check it adds up to wall time. */
void
printSelfTimes(const SelfTimes &st, Outcome &out)
{
    std::printf("self times per traced job (%zu jobs, mean seconds):\n",
                st.jobs);
    double total = st.residual;
    for (const auto &[name, s] : st.layer) {
        std::printf("  %-22s %.6f s  %5.1f%%\n", name.c_str(), s,
                    st.wall > 0.0 ? 100.0 * s / st.wall : 0.0);
        total += s;
    }
    std::printf("  %-22s %.6f s  %5.1f%%\n", "residual", st.residual,
                st.wall > 0.0 ? 100.0 * st.residual / st.wall : 0.0);
    std::printf("  %-22s %.6f s  (sum of the above %.6f s)\n", "job wall",
                st.wall, total);
    out.check(st.jobs > 0, "trace: no job spans recorded");
    out.check(std::fabs(total - st.wall) <= 1e-9 * std::max(1.0, st.wall),
              "trace: self times plus residual differ from wall time");
}

/** Work counts a simulator-only change must leave identical. */
void
setWorkCounts(const std::vector<runner::ExperimentResult> &results,
              LayerTable &layers)
{
    double spikes = 0.0, detections = 0.0, overloads = 0.0, shed = 0.0,
           incidents = 0.0;
    for (const auto &r : results) {
        detections += static_cast<double>(r.telemetry.detections);
        shed += r.stats->lookup("shed.total");
        if (r.kind == runner::ExperimentKind::ClusterAttack) {
            spikes += r.attackOutcome.spikesLaunched;
            overloads += r.attackOutcome.rack.effectiveAttacks() +
                         r.attackOutcome.cluster.effectiveAttacks();
        }
        if (r.alerts)
            incidents += static_cast<double>(r.alerts->incidents().size());
    }
    layers.set("attack.spikes_launched", spikes);
    layers.set("core.detections", detections);
    layers.set("core.overloads", overloads);
    layers.set("core.shed_events", shed);
    layers.set("alert.incidents", incidents);
}

// ---------------------------------------------------------------------
// Output checks shared by the sweep workloads
// ---------------------------------------------------------------------

bool
socsInRange(const std::vector<double> &socs)
{
    return std::all_of(socs.begin(), socs.end(), [](double s) {
        return std::isfinite(s) && s >= 0.0 && s <= 1.0;
    });
}

/** Digest of everything a job simulated (stats dump and outcome). */
std::string
jobDigest(const runner::ExperimentResult &r)
{
    Digest d;
    d.text(statsText(*r.stats));
    d.num(r.attackOutcome.survivalSec);
    d.num(r.attackOutcome.throughput);
    d.num(static_cast<std::uint64_t>(r.attackOutcome.spikesLaunched));
    for (const auto &row : r.telemetry.socHistory)
        for (double v : row)
            d.num(v);
    for (double v : r.telemetry.shedHistory)
        d.num(v);
    return d.hex();
}

/** Physical-bound checks on one job's result. */
void
checkJob(const runner::Experiment &e, const runner::ExperimentResult &r,
         Outcome &out)
{
    const std::string tag = "job seed " + std::to_string(e.seed) + ": ";
    out.check(r.stats != nullptr, tag + "no stats");
    out.check(socsInRange(r.telemetry.socs), tag + "SoC outside [0,1]");
    if (e.kind == runner::ExperimentKind::ClusterAttack) {
        const auto &o = r.attackOutcome;
        out.check(o.survivalSec >= 0.0 &&
                      o.survivalSec <= e.attack.durationSec + 1e-9,
                  tag + "survival outside [0, horizon]");
        out.check(std::isfinite(o.throughput) && o.throughput >= 0.0 &&
                      o.throughput <= 1.0 + 1e-9,
                  tag + "throughput outside [0,1]");
        out.check(o.spikesLaunched >= 0, tag + "negative spike count");
    } else {
        const auto expected = static_cast<std::size_t>(
            e.coarse.untilHours * kTicksPerHour /
            static_cast<double>(runner::clusterConfig(e.coarse.scheme)
                                    .coarseStep));
        const auto &h = r.telemetry.socHistory;
        out.check(h.size() == expected,
                  tag + "history rows " + std::to_string(h.size()) +
                      " != coarse steps " + std::to_string(expected));
        out.check(r.telemetry.shedHistory.size() == h.size(),
                  tag + "shed history misaligned with SoC history");
        for (const auto &row : h)
            if (!socsInRange(row)) {
                out.fail(tag + "history SoC outside [0,1]");
                break;
            }
    }
}

// ---------------------------------------------------------------------
// Sweep workloads: attack_grid and coarse_month
// ---------------------------------------------------------------------

std::vector<runner::Experiment>
attackGrid(const runner::ClusterWorkload &cw)
{
    std::vector<runner::Experiment> grid;
    for (attack::VirusKind kind : attack::kAllVirusKinds)
        for (attack::AttackStyle style : attack::kAllAttackStyles)
            for (core::SchemeKind scheme : core::kAllSchemes) {
                runner::ClusterAttackSpec p;
                p.scheme = scheme;
                p.kind = kind;
                p.train = attack::spikeTrainFor(style, kind);
                p.durationSec = kGridHorizonSec;
                grid.push_back(runner::Experiment::clusterAttack(p, cw));
            }
    return grid;
}

std::vector<runner::Experiment>
monthGrid(const runner::ClusterWorkload &cw)
{
    std::vector<runner::Experiment> grid;
    for (core::SchemeKind scheme :
         {core::SchemeKind::PS, core::SchemeKind::VdebOnly,
          core::SchemeKind::Pad})
        for (battery::ChargePolicyKind charge :
             {battery::ChargePolicyKind::Online,
              battery::ChargePolicyKind::Offline}) {
            runner::ClusterCoarseSpec spec;
            spec.scheme = scheme;
            core::DataCenterConfig cfg = runner::clusterConfig(scheme);
            cfg.charge.kind = charge;
            spec.config = cfg;
            spec.untilHours = kMonthDays * 24.0;
            spec.recordHistory = true;
            grid.push_back(runner::Experiment::clusterCoarse(spec, cw));
        }
    return grid;
}

/** The grid of pass @p pass: distinct derived seeds per pass. */
std::vector<runner::Experiment>
passGrid(const std::vector<runner::Experiment> &base, std::uint64_t seed,
         std::uint64_t pass)
{
    std::vector<runner::Experiment> grid = base;
    runner::SweepRunner::assignSeeds(grid, derive(seed, pass));
    return grid;
}

/** Simulated seconds of the workload's measured phase in one job. */
double
simSeconds(const runner::Experiment &e, const runner::ExperimentResult &r)
{
    if (e.kind == runner::ExperimentKind::ClusterAttack)
        return attackWindowSec(e, *r.stats);
    return r.stats->lookup("sim.seconds");
}

struct PassTiming {
    double wall = 0.0;
    double simSec = 0.0;
    std::vector<double> jobWall;
};

void
runSweepWorkload(bool attack, std::uint64_t seed, double seconds,
                 bool traced, const std::string &tracePath, Outcome &out)
{
    const double days = attack ? 3.0 : kMonthDays;
    const Setup setup =
        buildSetup(days, derive(seed, 0xdada), PADBENCH_RULES_FILE, out);
    const auto base = attack ? attackGrid(setup.cw) : monthGrid(setup.cw);
    const int workers = attack ? kGridWorkers : kMonthWorkers;
    const runner::SweepRunner pool(runner::SweepRunner::Options{workers});

    // Untraced closed loop: one grid pass per derived seed. A trace-1
    // run spends half its budget here and half re-running these
    // passes traced.
    const double budget = traced ? seconds / 2.0 : seconds;
    std::vector<PassTiming> passes;
    std::vector<runner::ExperimentResult> first;
    const auto loop0 = Clock::now();
    while (passes.empty() || secondsSince(loop0) < budget) {
        const auto grid = passGrid(base, seed, passes.size());
        runner::SweepReport rep = pool.runWithReport(grid);
        PassTiming pt;
        pt.wall = rep.wallSeconds;
        pt.jobWall = rep.jobWallSeconds;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            out.attempt();
            checkJob(grid[i], rep.results[i], out);
            out.done();
            pt.simSec += simSeconds(grid[i], rep.results[i]);
        }
        if (passes.empty())
            first = std::move(rep.results);
        passes.push_back(std::move(pt));
    }

    // Determinism: pass 0 again, serially on the calling thread, must
    // reproduce the first pass job for job.
    {
        const auto grid = passGrid(base, seed, 0);
        const runner::SweepRunner serial(runner::SweepRunner::Options{1});
        const auto again = serial.run(grid);
        Digest all;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            out.attempt();
            const std::string a = jobDigest(first[i]);
            const std::string b = jobDigest(again[i]);
            out.check(a == b, "job " + std::to_string(i) +
                                  ": serial repeat differs from the "
                                  "first pass");
            out.done();
            all.text(a);
        }
        std::printf("sim_digest %s (pass 0, %zu jobs)\n", all.hex().c_str(),
                    grid.size());
    }

    std::vector<double> jobWalls, passRate, passSim;
    double idle = 0.0, wallWorkers = 0.0;
    for (const PassTiming &p : passes) {
        jobWalls.insert(jobWalls.end(), p.jobWall.begin(), p.jobWall.end());
        passRate.push_back(static_cast<double>(p.jobWall.size()) / p.wall);
        passSim.push_back(p.simSec / p.wall);
        idle += p.wall * workers - sum(p.jobWall);
        wallWorkers += p.wall * workers;
    }
    const double simRate = median(passSim);
    std::printf("# %zu passes x %zu jobs, %zu job latencies\n", passes.size(),
                base.size(), jobWalls.size());
    if (attack)
        std::printf("metric attack_sim_s_per_s %.6g 1/s\n", simRate);
    else
        std::printf("metric coarse_sim_days_per_s %.6g 1/s\n",
                    simRate / 86400.0);

    if (!traced) {
        out.metric("setup_s", median(setup.reps), "s");
        out.metric("runs_per_s", median(passRate), "1/s");
        out.metric("run_p50_s", quantile(jobWalls, 0.5), "s");
        out.metric("run_p90_s", slicedP90(jobWalls), "s");
        out.metric("sim_s_per_s", simRate, "s/s");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- traced half: the same passes, one public call per span ----
    LayerTable layers;
    SpanLog log;
    traceSetup(setup, log, layers);

    std::vector<TracedJob> tracedJobs;
    double tracedWall = 0.0, untracedWall = 0.0, tailIdle = 0.0;
    std::size_t tracedPasses = 0;
    const auto loop1 = Clock::now();
    while (tracedPasses < passes.size() &&
           (tracedPasses == 0 || secondsSince(loop1) < budget)) {
        const auto grid = passGrid(base, seed, tracedPasses);
        std::vector<TracedJob> jobs(grid.size());
        std::vector<std::pair<int, double>> ends(grid.size());
        const double passStart = log.now();
        pool.forEach(grid.size(), [&](std::size_t i) {
            const std::uint64_t id = (tracedPasses + 1) * 1000 + i;
            {
                Scoped root(&log, "job", id);
                jobs[i] = runTraced(grid[i], log, id);
            }
            ends[i] = {threadIndex(), log.now()};
        });
        // Tail idle: how long each worker waited for the pass's last job.
        const double passEnd = log.now();
        std::map<int, double> lastEnd;
        for (const auto &[tid, end] : ends)
            lastEnd[tid] = std::max(lastEnd[tid], end);
        for (const auto &[tid, end] : lastEnd)
            tailIdle += passEnd - end;
        tailIdle += std::max(0, workers - static_cast<int>(lastEnd.size())) *
                    (passEnd - passStart);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto &o = first[i].attackOutcome;
            const bool same =
                attack ? jobs[i].survivalSec == o.survivalSec &&
                             jobs[i].throughput == o.throughput &&
                             jobs[i].spikes == o.spikesLaunched
                       : statsText(*jobs[i].stats) ==
                                 statsText(*first[i].stats) &&
                             jobs[i].socHistory ==
                                 first[i].telemetry.socHistory;
            out.attempt();
            out.check(tracedPasses > 0 || same,
                      "trace: traced replica of job " + std::to_string(i) +
                          " differs from runExperiment");
            out.done();
            untracedWall += passes[tracedPasses].jobWall[i];
        }
        tracedJobs.insert(tracedJobs.end(), jobs.begin(), jobs.end());
        ++tracedPasses;
    }
    const SelfTimes st = selfTimes(log.spans());
    tracedWall = st.wall * static_cast<double>(st.jobs);
    setEngineLayers(tracedJobs, st, layers);
    layers.set("bench.trace_overhead_frac",
               untracedWall > 0.0 ? tracedWall / untracedWall - 1.0 : 0.0);
    layers.set("runner.parallel_eff",
               wallWorkers > 0.0 ? 1.0 - idle / wallWorkers : 0.0);
    layers.set("runner.tail_idle_s",
               tailIdle / static_cast<double>(tracedPasses));
    setWorkCounts(first, layers);

    // Profiled probe: pass 0 once more with the engine self-profiler,
    // for the program-reported cache and phase counters.
    {
        auto grid = passGrid(base, seed, 0);
        for (auto &e : grid)
            e.profileEngine = true;
        const runner::SweepReport rep = pool.runWithReport(grid);
        readProfilerStats(rep.stats, static_cast<double>(grid.size()),
                          layers);
    }

    printSelfTimes(st, out);
    std::printf("tracing overhead: %.2f%% over %zu matched jobs\n",
                100.0 * (untracedWall > 0.0 ? tracedWall / untracedWall - 1.0
                                            : 0.0),
                st.jobs);
    out.check(log.writeChrome(tracePath),
              "trace: cannot write " + tracePath);
    layers.emit(out);
}

// ---------------------------------------------------------------------
// telemetry_push
// ---------------------------------------------------------------------

/** The push workload's experiment cycle: one run per scheme. */
std::vector<runner::Experiment>
pushCycle(const Setup &setup)
{
    std::vector<runner::Experiment> cycle;
    for (core::SchemeKind scheme : core::kAllSchemes) {
        runner::ClusterAttackSpec p;
        p.scheme = scheme;
        p.durationSec = kPushWindowSec;
        runner::Experiment e = runner::Experiment::clusterAttack(p, setup.cw);
        e.telemetryEnabled = true;
        e.alertRules = setup.rules;
        cycle.push_back(std::move(e));
    }
    return cycle;
}

runner::Experiment
pushRun(const std::vector<runner::Experiment> &cycle, std::uint64_t seed,
        std::uint64_t run)
{
    runner::Experiment e = cycle[run % cycle.size()];
    e.seed = derive(seed, 0x9000 + run);
    return e;
}

/** Result of shipping one run's hub and stats. */
struct Shipment {
    telemetry::RemoteWriteShipper::Counters counters;
    double finishSec = 0.0;   ///< finish() call until it returned
    double drainSec = 0.0;    ///< return until the receiver merged all
    std::uint64_t merged = 0; ///< samples the receiver merged
};

/**
 * One ReceiverServer serving one cycle of runs, each shipped under
 * its own source. A fresh receiver per cycle keeps its merged state,
 * and so this process's memory, bounded. close() checks that it
 * merged exactly what its shippers shipped, exactly once.
 */
class RxBlock
{
  public:
    explicit RxBlock(Outcome &out) : out_(out)
    {
        std::string error;
        out_.check(rx.start(&error), "receiver: " + error);
    }

    /**
     * Ship @p hub and @p stats as @p source through a fresh shipper,
     * then wait until the receiver has merged every shipped sample.
     */
    Shipment
    ship(const std::string &source, const telemetry::TelemetryHub &hub,
         const sim::StatsRegistry &stats, SpanLog *log, std::uint64_t id)
    {
        Shipment out;
        const std::uint64_t before = rx.counters().samples;
        telemetry::RemoteWriteOptions rw;
        rw.port = rx.port();
        rw.source = source;
        telemetry::RemoteWriteShipper shipper(std::move(rw), &hub);
        std::string error;
        if (!shipper.start(&error)) {
            out_.fail("shipper: " + error);
            return out;
        }
        const auto t0 = Clock::now();
        {
            Scoped s(log, "telemetry.finish", id);
            shipper.observe(0);
            shipper.finish(secondsToTicks(stats.lookup("sim.seconds")),
                           &stats);
        }
        out.finishSec = secondsSince(t0);
        out.counters = shipper.counters();
        const auto t1 = Clock::now();
        {
            Scoped s(log, "telemetry.rx_drain", id);
            const std::uint64_t want = before + out.counters.samplesShipped;
            while (rx.counters().samples < want && secondsSince(t1) < 10.0)
                std::this_thread::yield();
        }
        out.drainSec = secondsSince(t1);
        out.merged = rx.counters().samples - before;
        shipped_ += out.counters.samplesShipped;
        ++sources_;
        return out;
    }

    void
    close()
    {
        const auto c = rx.counters();
        protocolErrors = c.protocolErrors;
        out_.check(c.samples == shipped_,
                   "receiver merged " + std::to_string(c.samples) +
                       " samples, shippers shipped " +
                       std::to_string(shipped_));
        out_.check(c.duplicates == 0, "receiver saw duplicate batches");
        out_.check(c.protocolErrors == 0, "receiver protocol errors");
        out_.check(rx.sourceCount() == sources_,
                   "receiver source count differs from runs shipped");
        rx.stop();
    }

    telemetry::ReceiverServer rx{0};
    std::uint64_t protocolErrors = 0;

  private:
    Outcome &out_;
    std::uint64_t shipped_ = 0;
    std::uint64_t sources_ = 0;
};

void
checkShipment(const Shipment &s, Outcome &out, const std::string &tag)
{
    out.check(s.merged == s.counters.samplesShipped,
              tag + ": receiver did not merge every sample");
    out.check(s.counters.batchesDropped == 0, tag + ": dropped batches");
    out.check(s.counters.samplesLost == 0, tag + ": samples lost");
    out.check(s.counters.batchesSent == s.counters.batchesEnqueued,
              tag + ": batches sent != enqueued");
}

/** Replay a hub's samples, in tick order, through a fresh engine. */
double
replayAlerts(const telemetry::TelemetryHub &hub, const alert::RuleSet &rules,
             std::uint64_t *samples)
{
    const auto snap = hub.rawSnapshot();
    std::vector<std::tuple<Tick, std::uint32_t, double>> stream;
    for (std::uint32_t i = 0; i < snap.size(); ++i)
        for (const auto &s : snap[i].raw)
            stream.emplace_back(s.when, i, s.value);
    std::stable_sort(stream.begin(), stream.end(),
                     [](const auto &a, const auto &b) {
                         return std::get<0>(a) < std::get<0>(b);
                     });
    alert::AlertEngine engine(rules);
    const auto t0 = Clock::now();
    Tick last = 0;
    for (const auto &[when, i, v] : stream) {
        engine.onSample(i, snap[i].name, when, v);
        last = when;
    }
    engine.finalize(last);
    *samples = stream.size();
    return secondsSince(t0);
}

void
runPushWorkload(std::uint64_t seed, double seconds, bool traced,
                const std::string &tracePath, Outcome &out)
{
    const Setup setup =
        buildSetup(3.0, derive(seed, 0xdada), PADBENCH_RULES_FILE, out);
    const auto cycle = pushCycle(setup);

    // Untraced closed loop: run, ship, wait for the merge, repeat,
    // in whole cycles.
    const double budget = traced ? seconds / 2.0 : seconds;
    std::vector<double> runWall, exportMs, blockRate, blockSim;
    double exportSec = 0.0, blockWall = 0.0, blockSimSec = 0.0;
    std::uint64_t samplesMerged = 0;
    std::vector<runner::ExperimentResult> firstCycle;
    std::optional<RxBlock> block;
    const auto loop0 = Clock::now();
    std::uint64_t runs = 0;
    while (runs < cycle.size() || secondsSince(loop0) < budget ||
           runs % cycle.size() != 0) {
        if (runs % cycle.size() == 0) {
            if (block)
                block->close();
            block.emplace(out);
        }
        const runner::Experiment e = pushRun(cycle, seed, runs);
        const auto t0 = Clock::now();
        runner::ExperimentResult r = runner::runExperiment(e);
        const Shipment s = block->ship("run" + std::to_string(runs), *r.hub,
                                       *r.stats, nullptr, 0);
        const double wall = secondsSince(t0);
        out.attempt();
        checkJob(e, r, out);
        checkShipment(s, out, "run " + std::to_string(runs));
        out.done();
        runWall.push_back(wall);
        exportMs.push_back((s.finishSec + s.drainSec) * 1e3);
        exportSec += s.finishSec + s.drainSec;
        samplesMerged += s.merged;
        blockWall += wall;
        blockSimSec += attackWindowSec(e, *r.stats);
        if (runs < cycle.size())
            firstCycle.push_back(std::move(r));
        ++runs;
        if (runs % cycle.size() == 0) {
            blockRate.push_back(static_cast<double>(cycle.size()) /
                                blockWall);
            blockSim.push_back(blockSimSec / blockWall);
            blockWall = blockSimSec = 0.0;
        }
    }
    block->close();
    block.reset();

    // Determinism: the first run, shipped twice into two fresh
    // receivers, must merge to byte-identical dumps.
    {
        std::string dumps[2];
        for (std::string &dump : dumps) {
            RxBlock fresh(out);
            const runner::ExperimentResult r =
                runner::runExperiment(pushRun(cycle, seed, 0));
            out.attempt();
            checkShipment(fresh.ship("run0", *r.hub, *r.stats, nullptr, 0),
                          out, "repeat of run 0");
            out.done();
            dump = fresh.rx.dumpMerged();
            fresh.close();
        }
        out.check(dumps[0] == dumps[1],
                  "repeat of run 0: receiver dumps differ");
        Digest d;
        d.text(dumps[0]);
        std::printf("sim_digest %s (dumpMerged of run 0)\n", d.hex().c_str());
    }

    const double pushRate =
        exportSec > 0.0 ? static_cast<double>(samplesMerged) / exportSec : 0.0;
    std::printf("# %llu runs, %llu samples merged\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(samplesMerged));
    std::printf("metric attack_sim_s_per_s %.6g 1/s\n", median(blockSim));
    std::printf("metric push_samples_per_s %.6g 1/s\n", pushRate);
    std::printf("metric export_p50_ms %.6g ms\n", quantile(exportMs, 0.5));
    std::printf("metric export_p90_ms %.6g ms\n", quantile(exportMs, 0.9));

    if (!traced) {
        out.metric("setup_s", median(setup.reps), "s");
        out.metric("runs_per_s", median(blockRate), "1/s");
        out.metric("run_p50_s", quantile(runWall, 0.5), "s");
        out.metric("run_p90_s", slicedP90(runWall), "s");
        out.metric("sim_s_per_s", median(blockSim), "s/s");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- traced half: the same runs, one public call per span ----
    LayerTable layers;
    layers.set("telemetry.push_samples_per_s", pushRate);
    layers.set("telemetry.export_p50_ms", quantile(exportMs, 0.5));
    layers.set("telemetry.export_p90_ms", quantile(exportMs, 0.9));
    layers.set("runner.parallel_eff", 1.0);
    SpanLog log;
    traceSetup(setup, log, layers);
    std::vector<TracedJob> tracedJobs;
    double untracedWall = 0.0;
    double snapshotSec = 0.0, encodeSec = 0.0, renderSec = 0.0,
           replaySec = 0.0, finishSec = 0.0;
    std::uint64_t tracedSamples = 0, replayed = 0, batches = 0, bytes = 0,
                  rxSamples = 0, dropped = 0, protocolErrors = 0;
    const auto loop1 = Clock::now();
    std::uint64_t n = 0;
    while (n < runs && (n < cycle.size() || secondsSince(loop1) < budget ||
                        n % cycle.size() != 0)) {
        if (n % cycle.size() == 0) {
            if (block) {
                block->close();
                protocolErrors += block->protocolErrors;
            }
            block.emplace(out);
        }
        const runner::Experiment e = pushRun(cycle, seed, n);
        const std::uint64_t id = n + 1;
        TracedJob j;
        Shipment s;
        {
            // The root span covers exactly what the untraced loop timed.
            Scoped root(&log, "job", id);
            j = runTraced(e, log, id);
            s = block->ship("run" + std::to_string(n), *j.hub, *j.stats,
                            &log, id);
        }
        out.attempt();
        checkShipment(s, out, "traced run " + std::to_string(n));
        if (n < cycle.size())
            out.check(j.survivalSec ==
                              firstCycle[n].attackOutcome.survivalSec &&
                          j.incidents == firstCycle[n].alerts->incidents()
                                             .size(),
                      "trace: traced replica of run " + std::to_string(n) +
                          " differs from runExperiment");
        out.done();
        untracedWall += runWall[n];
        finishSec += s.finishSec;
        tracedSamples += s.counters.samplesShipped;
        batches += s.counters.batchesSent;
        dropped += s.counters.batchesDropped;
        rxSamples += s.merged;

        // Probes outside the timed run, under the same id.
        {
            Scoped p(&log, "probe.snapshot", id);
            const auto t0 = Clock::now();
            const auto snap = j.hub->rawSnapshot();
            snapshotSec += secondsSince(t0);
            telemetry::RwBatch b;
            b.source = "probe";
            for (const auto &series : snap)
                b.series.push_back({series.name, series.raw});
            const auto t1 = Clock::now();
            bytes += telemetry::frameRwLine(telemetry::renderRwBatchLine(b))
                         .size();
            encodeSec += secondsSince(t1);
        }
        {
            Scoped p(&log, "probe.render_metrics", id);
            const auto t0 = Clock::now();
            const std::string text = block->rx.renderMetrics();
            renderSec += secondsSince(t0);
            out.check(!text.empty(), "receiver rendered no metrics");
        }
        {
            Scoped p(&log, "probe.alert_replay", id);
            std::uint64_t k = 0;
            replaySec += replayAlerts(*j.hub, *setup.rules, &k);
            replayed += k;
        }
        tracedJobs.push_back(std::move(j));
        ++n;
    }
    block->close();
    protocolErrors += block->protocolErrors;
    block.reset();
    const SelfTimes st = selfTimes(log.spans());
    setEngineLayers(tracedJobs, st, layers);
    const double dn = static_cast<double>(std::max<std::uint64_t>(1, n));
    const double tracedWall = st.wall * static_cast<double>(st.jobs);
    layers.set("bench.trace_overhead_frac",
               untracedWall > 0.0 ? tracedWall / untracedWall - 1.0 : 0.0);
    layers.set("telemetry.samples", static_cast<double>(tracedSamples) / dn);
    layers.set("telemetry.batches", static_cast<double>(batches) / dn);
    layers.set("telemetry.bytes", static_cast<double>(bytes) / dn);
    layers.set("telemetry.snapshot_s", snapshotSec / dn);
    layers.set("telemetry.encode_s", encodeSec / dn);
    layers.set("telemetry.ns_per_sample",
               tracedSamples > 0
                   ? finishSec / static_cast<double>(tracedSamples) * 1e9
                   : 0.0);
    layers.set("telemetry.rx_samples", static_cast<double>(rxSamples) / dn);
    layers.set("telemetry.dropped", static_cast<double>(dropped));
    layers.set("telemetry.protocol_errors",
               static_cast<double>(protocolErrors));
    layers.set("telemetry.render_metrics_s", renderSec / dn);
    layers.set("alert.replay_ns_per_sample",
               replayed > 0 ? replaySec / static_cast<double>(replayed) * 1e9
                            : 0.0);
    setWorkCounts(firstCycle, layers);

    // Profiled probe: one cycle with the engine self-profiler.
    {
        sim::StatsRegistry merged;
        for (std::uint64_t i = 0; i < cycle.size(); ++i) {
            runner::Experiment e = pushRun(cycle, seed, i);
            e.profileEngine = true;
            merged.mergeFrom(*runner::runExperiment(e).stats);
        }
        readProfilerStats(merged, static_cast<double>(cycle.size()), layers);
    }

    printSelfTimes(st, out);
    std::printf("tracing overhead: %.2f%% over %zu matched runs\n",
                100.0 * (untracedWall > 0.0 ? tracedWall / untracedWall - 1.0
                                            : 0.0),
                st.jobs);
    out.check(log.writeChrome(tracePath), "trace: cannot write " + tracePath);
    layers.emit(out);
}

// ---------------------------------------------------------------------
// Command line and result
// ---------------------------------------------------------------------

void
usage()
{
    std::fprintf(stderr,
                 "usage: padbench --workload attack_grid|coarse_month|"
                 "telemetry_push --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    std::exit(2);
}

void
printResult(const Outcome &out, const std::string &workload,
            std::uint64_t seed)
{
    for (const auto &m : out.metrics)
        std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const auto &f : out.failures)
        std::printf("FAILED CHECK: %s\n", f.c_str());
    std::printf("# workload %s seed %llu attempted %llu failed %llu "
                "failed_frac %.6g\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0);
    std::string json = "{\"correct\": ";
    json += out.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &m : out.metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        json += std::string(first ? "" : ", ") + "\"" + m.name +
                "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, tracePath;
    std::optional<std::uint64_t> seed;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            workload = val;
        } else if (key == "--seed") {
            seed = std::strtoull(val.c_str(), &end, 10);
            if (*end != '\0' || val.empty())
                usage();
        } else if (key == "--seconds") {
            seconds = std::strtod(val.c_str(), &end);
            if (*end != '\0' || !(seconds > 0.0))
                usage();
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage();
            trace = val == "1";
        } else if (key == "--trace-out") {
            tracePath = val;
        } else {
            usage();
        }
    }
    if (argc % 2 != 1 || !seed || seconds <= 0.0 || trace < 0)
        usage();
    if (tracePath.empty())
        tracePath = "padbench_trace.json";

    std::printf("# padbench workload %s seed %llu seconds %g trace %d\n",
                workload.c_str(), static_cast<unsigned long long>(*seed),
                seconds, trace);
    Outcome out;
    if (workload == "attack_grid" || workload == "coarse_month")
        runSweepWorkload(workload == "attack_grid", *seed, seconds, trace,
                         tracePath, out);
    else if (workload == "telemetry_push")
        runPushWorkload(*seed, seconds, trace, tracePath, out);
    else
        usage();
    printResult(out, workload, *seed);
    return out.failed == 0 ? 0 : 1;
}
