#include "runner/experiment.h"

#include <algorithm>
#include <cmath>

#include <optional>

#include "attack/power_virus.h"
#include "battery/battery_unit.h"
#include "core/udeb.h"
#include "engine/cluster_engine.h"
#include "engine/prof_stats.h"
#include "obs/tracer.h"
#include "power/server_power_model.h"
#include "util/logging.h"

namespace pad::runner {

namespace {

/** splitmix64 hash for deterministic per-(stream, second) noise. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
unitNoise(std::uint64_t stream, std::uint64_t second)
{
    const std::uint64_t h = mix((stream << 40) ^ second);
    return static_cast<double>(h >> 11) /
               static_cast<double>(1ULL << 53) * 2.0 -
           1.0;
}

RackLabResult
runRackLab(const RackLabSpec &cfg, double windowSec)
{
    PAD_ASSERT(cfg.servers >= 1 &&
               cfg.maliciousNodes <= cfg.servers);
    power::ServerPowerModel model(
        power::ServerPowerConfig{cfg.idlePower, cfg.peakPower, 0.85});
    const Watts nameplate = cfg.peakPower * cfg.servers;

    RackLabResult out;
    out.budget = cfg.budgetFraction * nameplate;
    out.limit = out.budget * (1.0 + cfg.overshoot);

    attack::PowerVirus virus(cfg.kind, cfg.train, cfg.seed);

    std::unique_ptr<battery::BatteryUnit> deb;
    if (cfg.batteryCharged) {
        battery::BatteryUnitConfig bc;
        bc.capacityWh = joulesToWattHours(nameplate * cfg.batterySeconds);
        bc.maxDischargePower = nameplate * 1.2;
        bc.maxChargePower = nameplate * 0.05;
        deb = std::make_unique<battery::BatteryUnit>("lab.deb", bc);
    }
    std::unique_ptr<core::MicroDeb> udeb;
    if (cfg.withUdeb) {
        core::MicroDebConfig uc;
        uc.cap.capacitanceF = cfg.udebFarads;
        udeb = std::make_unique<core::MicroDeb>("lab.udeb", uc);
    }

    bool inOverload = false;
    std::vector<double> crossings; // seconds of each overload onset
    double secAccum = 0.0;
    double secEnergy = 0.0;
    const int steps = static_cast<int>(windowSec / cfg.stepSec + 0.5);
    for (int i = 0; i < steps; ++i) {
        const double t = i * cfg.stepSec;
        const auto second = static_cast<std::uint64_t>(t);

        Watts rack = 0.0;
        const double malUtil = virus.phaseTwoUtil(t);
        for (int s = 0; s < cfg.servers; ++s) {
            double util;
            if (s < cfg.maliciousNodes) {
                util = malUtil;
            } else {
                util = cfg.normalUtil *
                       (1.0 + cfg.noiseAmp *
                                  unitNoise(cfg.seed ^ (s + 1), second));
            }
            rack += model.power(std::clamp(util, 0.0, 1.0));
        }

        Watts draw = rack;
        if (deb) {
            const Watts excess = std::max(0.0, draw - out.budget);
            if (excess > 0.0)
                draw -= deb->discharge(excess, cfg.stepSec) / cfg.stepSec;
            else
                deb->rest(cfg.stepSec);
            if (deb->unavailable() && out.batteryOutSec < 0.0)
                out.batteryOutSec = t;
        }
        if (udeb) {
            const Watts residual =
                std::max(0.0, draw - out.limit * 0.999);
            if (residual > 0.0)
                draw -= udeb->shave(residual, cfg.stepSec);
            else
                udeb->recharge(std::max(0.0, out.budget - draw),
                               cfg.stepSec);
        }

        const bool over = draw > out.limit;
        if (over && !inOverload) {
            crossings.push_back(t);
            if (out.firstOverloadSec < 0.0)
                out.firstOverloadSec = t;
        }
        inOverload = over;

        secEnergy += draw * cfg.stepSec;
        secAccum += cfg.stepSec;
        if (secAccum >= 1.0 - 1e-9) {
            out.drawPerSecond.push_back(secEnergy / secAccum);
            secAccum = 0.0;
            secEnergy = 0.0;
        }
    }

    for (int i = 0;; ++i) {
        const double s = virus.spikeStart(i);
        const double e = s + cfg.train.widthSec;
        if (e > windowSec)
            break;
        out.spikeWindows.emplace_back(s, e);
    }
    out.spikesLaunched = static_cast<int>(out.spikeWindows.size());

    // Effective attacks are counted per *spike*, the paper's unit of
    // attack: a spike is effective when an overload onset falls in
    // (or just after) its window. Residual onsets outside any spike
    // (sustained saturation, noise flicker at the limit) collapse
    // into a single extra event.
    const double slack = virus.signature().riseTimeSec + 0.5;
    bool residual = false;
    std::size_t spike = 0;
    std::vector<bool> hit(out.spikeWindows.size(), false);
    for (double t : crossings) {
        while (spike < out.spikeWindows.size() &&
               out.spikeWindows[spike].second + slack < t)
            ++spike;
        if (spike < out.spikeWindows.size() &&
            t >= out.spikeWindows[spike].first - 0.5 &&
            t <= out.spikeWindows[spike].second + slack)
            hit[spike] = true;
        else
            residual = true;
    }
    for (bool h : hit)
        out.effectiveAttacks += h;
    out.effectiveAttacks += residual ? 1 : 0;
    return out;
}

RackLabServerTrace
runRackLabServers(const RackLabSpec &cfg, double windowSec)
{
    PAD_ASSERT(cfg.maliciousNodes >= 1);
    power::ServerPowerModel model(
        power::ServerPowerConfig{cfg.idlePower, cfg.peakPower, 0.85});
    attack::PowerVirus virus(cfg.kind, cfg.train, cfg.seed);
    const double pressure =
        cfg.train.pressure >= 0.0 ? cfg.train.pressure
                                  : virus.signature().phaseTwoPressure;
    const double restUtil = pressure * virus.signature().maxUtil;

    RackLabServerTrace out;
    out.stepSec = cfg.stepSec;
    out.baseline = model.power(restUtil);
    out.power.resize(static_cast<std::size_t>(cfg.maliciousNodes));
    out.spikes.resize(static_cast<std::size_t>(cfg.maliciousNodes));

    // Round-robin attribution: spike k fires on node k % N, so each
    // node's individual trace carries 1/N of the schedule.
    std::vector<std::pair<double, double>> allSpikes;
    for (int i = 0;; ++i) {
        const double s = virus.spikeStart(i);
        const double e = s + cfg.train.widthSec;
        if (e > windowSec)
            break;
        allSpikes.emplace_back(s, e);
        out.spikes[static_cast<std::size_t>(i % cfg.maliciousNodes)]
            .emplace_back(s, e);
    }

    const int steps = static_cast<int>(windowSec / cfg.stepSec + 0.5);
    for (int n = 0; n < cfg.maliciousNodes; ++n) {
        auto &trace = out.power[static_cast<std::size_t>(n)];
        trace.reserve(static_cast<std::size_t>(steps));
        std::size_t next = 0;
        const auto &mine = out.spikes[static_cast<std::size_t>(n)];
        for (int i = 0; i < steps; ++i) {
            const double t = i * cfg.stepSec;
            while (next < mine.size() && t >= mine[next].second)
                ++next;
            const bool spiking = next < mine.size() &&
                                 t >= mine[next].first &&
                                 t < mine[next].second;
            double util;
            if (spiking) {
                // Per-spike amplitude jitter: consecutive bursts of
                // the same benchmark do not hit identical peaks.
                const double amp =
                    0.85 + 0.15 * (0.5 + 0.5 * unitNoise(
                                             cfg.seed ^ 0x5a ^ (n + 1),
                                             next));
                util = virus.signature().maxUtil * amp;
            } else {
                util = restUtil;
            }
            // Fast measurement noise plus a slow (10 s) wander of the
            // background level: both are what makes threshold-based
            // detection statistical rather than binary.
            util *= 1.0 + 0.04 * unitNoise(cfg.seed ^ 0x77 ^ (n + 1),
                                           static_cast<std::uint64_t>(t));
            util *= 1.0 + 0.05 * unitNoise(
                              cfg.seed ^ 0x99 ^ (n + 1),
                              static_cast<std::uint64_t>(t / 10.0));
            trace.push_back(model.power(std::clamp(util, 0.0, 1.0)));
        }
    }
    return out;
}

/**
 * Online monitoring attached to one cluster job: the telemetry hub
 * (created even when the caller did not ask for telemetry, since the
 * alert engine feeds off hub samples) plus the alert engine and the
 * trace-sink adapter that routes curated events into it. Purely
 * observational — attaching it never changes simulation results.
 */
class JobMonitoring
{
  public:
    JobMonitoring(engine::ClusterEngine &dc, bool telemetryEnabled,
                  const alert::RuleSet *rules)
    {
        if (telemetryEnabled || rules) {
            hub = std::make_shared<telemetry::TelemetryHub>();
            dc.setTelemetry(hub.get());
        }
        if (rules) {
            engine = std::make_shared<alert::AlertEngine>(*rules);
            hub->setListener(engine.get());
            // Route curated trace events into the engine, passing
            // them through to whatever sink the thread already had
            // (the run's real trace file, or nothing).
            feed_ = std::make_unique<alert::AlertTraceSink>(
                *engine, obs::currentTraceSink());
            scope_.emplace(feed_.get(), obs::currentTraceJob());
        }
    }

    JobMonitoring(const JobMonitoring &) = delete;
    JobMonitoring &operator=(const JobMonitoring &) = delete;

    /** Stop feeds and seal the engine at sim time @p end. */
    void
    finish(Tick end)
    {
        if (!engine || engine->finalized())
            return;
        hub->setListener(nullptr);
        scope_.reset();
        engine->finalize(end);
    }

    std::shared_ptr<telemetry::TelemetryHub> hub;
    std::shared_ptr<alert::AlertEngine> engine;

  private:
    std::unique_ptr<alert::AlertTraceSink> feed_;
    std::optional<obs::TraceScope> scope_;
};

/** Resolve the data-center config a cluster spec describes. */
core::DataCenterConfig
resolveConfig(const ClusterAttackSpec &spec)
{
    if (spec.config)
        return *spec.config;
    core::DataCenterConfig cfg = clusterConfig(spec.scheme);
    cfg.budgetFraction = spec.budgetFraction;
    cfg.clusterBudgetFraction = spec.clusterBudgetFraction;
    return cfg;
}

/**
 * Build the optional per-job engine profiler: attached only when the
 * experiment asks for it, so the default path stays a null pointer
 * inside the engine and outputs remain byte-identical.
 */
std::unique_ptr<obs::EngineProfiler>
makeProfiler(engine::ClusterEngine &dc, bool profileEngine,
             obs::EngineProfiler::ClockFn clock)
{
    if (!profileEngine)
        return nullptr;
    auto prof = std::make_unique<obs::EngineProfiler>();
    if (clock)
        prof->setClock(clock);
    dc.setProfiler(prof.get());
    return prof;
}

ExperimentResult
runClusterAttack(const ClusterAttackSpec &spec,
                 const ClusterWorkload &cw, std::uint64_t seed,
                 bool telemetryEnabled,
                 const alert::RuleSet *rules, bool profileEngine,
                 obs::EngineProfiler::ClockFn profileClock)
{
    core::DataCenterConfig cfg = resolveConfig(spec);
    if (seed != kSpecSeed)
        cfg.seed = seed;
    engine::ClusterEngine dc(cfg, cw.workload.get());
    auto prof = makeProfiler(dc, profileEngine, profileClock);
    JobMonitoring mon(dc, telemetryEnabled, rules);
    // Warm up through one night and the next morning so batteries
    // carry realistic state, then strike near the diurnal peak.
    dc.runCoarseUntil(kTicksPerDay +
                      static_cast<Tick>(spec.attackHour *
                                        kTicksPerHour));
    if (spec.initialSoc >= 0.0)
        dc.setAllSoc(spec.initialSoc);

    attack::AttackerConfig ac;
    ac.controlledNodes = spec.nodes;
    ac.kind = spec.kind;
    ac.train = spec.train;
    ac.prepareSec = spec.prepareSec;
    ac.maxDrainSec = spec.maxDrainSec;
    ac.learnRounds = spec.learnRounds;
    ac.recoverSec = spec.recoverSec;
    if (seed != kSpecSeed)
        ac.seed = mix(seed ^ 0xa77ac4);
    attack::TwoPhaseAttacker attacker(ac);

    const double rankWindowSec = spec.rankWindowSec > 0.0
                                     ? spec.rankWindowSec
                                     : spec.durationSec;
    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::Fixed;
    sc.targetRack = core::rackByLoadPercentile(
        *cw.workload, cfg, dc.now(),
        dc.now() + secondsToTicks(rankWindowSec), spec.victimPct);
    for (int i = 1; i < spec.victimRacks; ++i) {
        const double pct = std::max(
            0.0, spec.victimPct - 5.0 * static_cast<double>(i));
        const int rack = core::rackByLoadPercentile(
            *cw.workload, cfg, dc.now(),
            dc.now() + secondsToTicks(rankWindowSec), pct);
        if (rack != sc.targetRack &&
            std::find(sc.extraVictimRacks.begin(),
                      sc.extraVictimRacks.end(),
                      rack) == sc.extraVictimRacks.end())
            sc.extraVictimRacks.push_back(rack);
    }
    sc.durationSec = spec.durationSec;
    sc.dutyCycle = spec.dutyCycle;

    ExperimentResult out;
    out.kind = ExperimentKind::ClusterAttack;
    out.attackOutcome = dc.runAttack(attacker, sc);
    out.telemetry.detections = dc.detectionsFlagged();
    out.telemetry.autonomySamples = attacker.autonomySamples();
    out.telemetry.socs = dc.allSocs();
    out.telemetry.socStdDevPercent = dc.socStdDevPercent();
    out.stats = std::make_shared<sim::StatsRegistry>();
    dc.exportStats(*out.stats);
    if (prof)
        engine::exportProfilerStats(*prof, *out.stats);
    out.stats
        ->registerScalar("attack.survival_sec",
                         "attack start to first overload")
        .set(out.attackOutcome.survivalSec);
    out.stats
        ->registerScalar("attack.throughput",
                         "benign throughput over the window")
        .set(out.attackOutcome.throughput);
    out.stats
        ->registerCounter("attack.spikes_launched",
                          "hidden spikes launched in Phase II")
        .add(static_cast<std::uint64_t>(
            std::max(0, out.attackOutcome.spikesLaunched)));
    mon.finish(dc.now());
    // The hub only travels with the result when the caller asked for
    // telemetry, so --prom artifacts are identical with or without
    // alerting enabled.
    out.hub = telemetryEnabled ? mon.hub : nullptr;
    out.alerts = mon.engine;
    return out;
}

ExperimentResult
runClusterCoarse(const ClusterCoarseSpec &spec,
                 const ClusterWorkload &cw, std::uint64_t seed,
                 bool telemetryEnabled,
                 const alert::RuleSet *rules, bool profileEngine,
                 obs::EngineProfiler::ClockFn profileClock)
{
    core::DataCenterConfig cfg;
    if (spec.config) {
        cfg = *spec.config;
    } else {
        cfg = clusterConfig(spec.scheme);
        if (spec.clusterBudgetFraction > 0.0)
            cfg.clusterBudgetFraction = spec.clusterBudgetFraction;
    }
    if (seed != kSpecSeed)
        cfg.seed = seed;
    engine::ClusterEngine dc(cfg, cw.workload.get());
    auto prof = makeProfiler(dc, profileEngine, profileClock);
    JobMonitoring mon(dc, telemetryEnabled, rules);
    dc.setRecordHistory(spec.recordHistory);
    dc.runCoarseUntil(
        static_cast<Tick>(spec.untilHours * kTicksPerHour));

    ExperimentResult out;
    out.kind = ExperimentKind::ClusterCoarse;
    out.telemetry.detections = dc.detectionsFlagged();
    out.telemetry.socs = dc.allSocs();
    out.telemetry.socStdDevPercent = dc.socStdDevPercent();
    out.telemetry.socHistory = dc.socHistory();
    out.telemetry.shedHistory = dc.shedHistory();
    out.stats = std::make_shared<sim::StatsRegistry>();
    dc.exportStats(*out.stats);
    if (prof)
        engine::exportProfilerStats(*prof, *out.stats);
    mon.finish(dc.now());
    out.hub = telemetryEnabled ? mon.hub : nullptr;
    out.alerts = mon.engine;
    return out;
}

} // namespace

ClusterWorkload
makeClusterWorkload(double days, double surgePeriodHours,
                    std::uint64_t seed)
{
    ClusterWorkload cw;
    cw.traceConfig.machines = 220;
    cw.traceConfig.days = days;
    cw.traceConfig.seed = seed;
    cw.traceConfig.surgePeriodHours = surgePeriodHours;
    trace::SyntheticGoogleTrace gen(cw.traceConfig);
    cw.events = gen.generate();
    cw.workload = std::make_unique<trace::Workload>(
        cw.events, cw.traceConfig.machines,
        static_cast<Tick>(days * kTicksPerDay));
    return cw;
}

core::DataCenterConfig
clusterConfig(core::SchemeKind scheme)
{
    core::DataCenterConfig cfg;
    cfg.scheme = scheme;
    cfg.deb = core::defaultDebConfig(cfg.rackNameplate());
    return cfg;
}

Experiment
Experiment::rackLab(RackLabSpec spec, double windowSec)
{
    Experiment e;
    e.kind = ExperimentKind::RackLab;
    e.lab = std::move(spec);
    e.windowSec = windowSec;
    return e;
}

Experiment
Experiment::rackLabServers(RackLabSpec spec, double windowSec)
{
    Experiment e;
    e.kind = ExperimentKind::RackLabServers;
    e.lab = std::move(spec);
    e.windowSec = windowSec;
    return e;
}

Experiment
Experiment::clusterAttack(ClusterAttackSpec spec,
                          const ClusterWorkload &cw)
{
    Experiment e;
    e.kind = ExperimentKind::ClusterAttack;
    e.attack = std::move(spec);
    e.workload = &cw;
    return e;
}

Experiment
Experiment::clusterCoarse(ClusterCoarseSpec spec,
                          const ClusterWorkload &cw)
{
    Experiment e;
    e.kind = ExperimentKind::ClusterCoarse;
    e.coarse = std::move(spec);
    e.workload = &cw;
    return e;
}

const RackLabResult &
ExperimentResult::lab() const
{
    PAD_ASSERT(kind == ExperimentKind::RackLab);
    return labResult;
}

const RackLabServerTrace &
ExperimentResult::servers() const
{
    PAD_ASSERT(kind == ExperimentKind::RackLabServers);
    return serverTraces;
}

const core::AttackOutcome &
ExperimentResult::attack() const
{
    PAD_ASSERT(kind == ExperimentKind::ClusterAttack);
    return attackOutcome;
}

const ClusterTelemetry &
ExperimentResult::cluster() const
{
    PAD_ASSERT(kind == ExperimentKind::ClusterAttack ||
               kind == ExperimentKind::ClusterCoarse);
    return telemetry;
}

ExperimentResult
runExperiment(const Experiment &experiment)
{
    switch (experiment.kind) {
      case ExperimentKind::RackLab: {
          RackLabSpec spec = experiment.lab;
          if (experiment.seed != kSpecSeed)
              spec.seed = experiment.seed;
          ExperimentResult out;
          out.kind = ExperimentKind::RackLab;
          out.labResult = runRackLab(spec, experiment.windowSec);
          out.stats = std::make_shared<sim::StatsRegistry>();
          out.stats
              ->registerCounter("lab.effective_attacks",
                                "overload-limit crossings")
              .add(static_cast<std::uint64_t>(
                  std::max(0, out.labResult.effectiveAttacks)));
          out.stats
              ->registerCounter("lab.spikes_launched",
                                "spikes launched in the window")
              .add(static_cast<std::uint64_t>(
                  std::max(0, out.labResult.spikesLaunched)));
          out.stats
              ->registerScalar("lab.first_overload_sec",
                               "time of first overload; <0 none")
              .set(out.labResult.firstOverloadSec);
          out.stats
              ->registerScalar("lab.battery_out_sec",
                               "battery depletion time; <0 never")
              .set(out.labResult.batteryOutSec);
          return out;
      }
      case ExperimentKind::RackLabServers: {
          RackLabSpec spec = experiment.lab;
          if (experiment.seed != kSpecSeed)
              spec.seed = experiment.seed;
          ExperimentResult out;
          out.kind = ExperimentKind::RackLabServers;
          out.serverTraces =
              runRackLabServers(spec, experiment.windowSec);
          return out;
      }
      case ExperimentKind::ClusterAttack:
        PAD_ASSERT(experiment.workload != nullptr,
                   "cluster experiments need a workload");
        return runClusterAttack(experiment.attack,
                                *experiment.workload,
                                experiment.seed,
                                experiment.telemetryEnabled,
                                experiment.alertRules.get(),
                                experiment.profileEngine,
                                experiment.profileClock);
      case ExperimentKind::ClusterCoarse:
        PAD_ASSERT(experiment.workload != nullptr,
                   "cluster experiments need a workload");
        return runClusterCoarse(experiment.coarse,
                                *experiment.workload,
                                experiment.seed,
                                experiment.telemetryEnabled,
                                experiment.alertRules.get(),
                                experiment.profileEngine,
                                experiment.profileClock);
    }
    PAD_PANIC("unreachable experiment kind");
}

} // namespace pad::runner
