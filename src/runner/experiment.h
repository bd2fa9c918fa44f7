/**
 * @file
 * The unified Experiment API: every figure/ablation bench describes
 * one independent simulation as an Experiment value and receives an
 * ExperimentResult back, either serially through runExperiment() or
 * in parallel through runner::SweepRunner.
 *
 * Three experiment vehicles mirror the paper's methodology (Fig. 11):
 *
 *  - RackLab / RackLabServers: the scaled-down hardware platform of
 *    Fig. 11-A (a mini rack with a small battery set), simulated at
 *    100 ms resolution. Drives Figures 6, 7, 8 and Table I.
 *  - ClusterAttack: the trace-driven cluster simulator of Fig. 11-B
 *    (22 racks x 10 DL585 G5 servers fed by a Google-style trace)
 *    warmed up and struck by a two-phase attacker. Drives Figures
 *    15, 16 and the attack ablations.
 *  - ClusterCoarse: days of normal coarse-grained cluster operation
 *    with optional SOC/shed history recording. Drives Figures 5, 13
 *    and the balancing ablations.
 *
 * Every Experiment is a pure value: it references shared read-only
 * inputs (the ClusterWorkload) and owns everything else, so any set
 * of experiments may execute concurrently and the results are
 * bit-identical to serial execution.
 */

#ifndef PAD_RUNNER_EXPERIMENT_H
#define PAD_RUNNER_EXPERIMENT_H

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "alert/engine.h"
#include "attack/attacker.h"
#include "attack/power_virus.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "core/schemes.h"
#include "engine/backend.h"
#include "sim/stats_registry.h"
#include "telemetry/hub.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/types.h"

namespace pad::runner {

// ---------------------------------------------------------------------
// Shared read-only inputs
// ---------------------------------------------------------------------

/**
 * Bundled trace-driven workload (generator output + utilization
 * grid). Built once per bench and shared *read-only* across all
 * experiments that reference it: Workload exposes only const queries
 * and carries no caches, so concurrent access is safe.
 */
struct ClusterWorkload {
    std::vector<trace::TaskEvent> events;
    std::unique_ptr<trace::Workload> workload;
    trace::SyntheticTraceConfig traceConfig;
};

/**
 * Build the evaluation workload: 220 machines, @p days days,
 * optionally with periodic cluster-wide surges (Fig. 14).
 */
ClusterWorkload makeClusterWorkload(double days,
                                    double surgePeriodHours = 0.0,
                                    std::uint64_t seed = 42);

/** The paper's cluster configuration for a given scheme. */
core::DataCenterConfig clusterConfig(core::SchemeKind scheme);

// ---------------------------------------------------------------------
// Experiment specs
// ---------------------------------------------------------------------

/** Configuration of the mini-rack attack lab (paper Fig. 11-A). */
struct RackLabSpec {
    /** Servers in the mini rack (paper: a handful of nodes). */
    int servers = 5;
    /** Idle power of one lab server, watts. */
    Watts idlePower = 60.0;
    /** Peak power of one lab server, watts. */
    Watts peakPower = 200.0;
    /** Rack budget as a fraction of nameplate. */
    double budgetFraction = 0.65;
    /** Overload tolerance above the budget. */
    double overshoot = 0.08;
    /** Mean utilization of the benign servers. */
    double normalUtil = 0.35;
    /** Relative per-second noise on benign utilization. */
    double noiseAmp = 0.18;
    /** Nodes the attacker controls. */
    int maliciousNodes = 1;
    /** Virus family. */
    attack::VirusKind kind = attack::VirusKind::CpuIntensive;
    /** Phase-II spike train. */
    attack::SpikeTrain train{1.0, 1.0, 1.0};
    /** Attach a (drained-by-Phase-I) battery? */
    bool batteryCharged = false;
    /** Battery sized for this many seconds at full rack load. */
    double batterySeconds = 50.0;
    /** Attach a µDEB super-cap spike shaver? */
    bool withUdeb = false;
    /** µDEB capacitance, farads. */
    double udebFarads = 2.0;
    /** Simulation step, seconds. */
    double stepSec = 0.1;
    /** Determinism. */
    std::uint64_t seed = 2024;
};

/** Result of one lab run. */
struct RackLabResult {
    /** Effective attacks (overload-limit crossings). */
    int effectiveAttacks = 0;
    /** Spikes the virus launched in the window. */
    int spikesLaunched = 0;
    /** Second-windows of each launched spike (start, end). */
    std::vector<std::pair<double, double>> spikeWindows;
    /** Rack draw sampled once per second, watts. */
    std::vector<double> drawPerSecond;
    /** Seconds until the battery (if any) first ran out; <0 never. */
    double batteryOutSec = -1.0;
    /** Seconds until the first overload; <0 when none occurred. */
    double firstOverloadSec = -1.0;
    /** Rack budget, watts. */
    Watts budget = 0.0;
    /** Overload limit, watts. */
    Watts limit = 0.0;
};

/**
 * Per-server draw trace of the attacking node, one sample per
 * stepSec, for detection-rate studies (Table I): when the attacker
 * round-robins spikes over several nodes, each node's individual
 * trace carries 1/N of the spikes.
 */
struct RackLabServerTrace {
    /** Power samples of each malicious server, [server][step]. */
    std::vector<std::vector<Watts>> power;
    /** Spike windows attributed to each server, seconds. */
    std::vector<std::vector<std::pair<double, double>>> spikes;
    /** Step length, seconds. */
    double stepSec = 0.1;
    /** Baseline (no-attack) power of one server, watts. */
    Watts baseline = 0.0;
};

/**
 * Parameters of one cluster attack measurement: warm the data center
 * up to the attack hour, then run a two-phase attack.
 *
 * The spec is a superset of every attack bench's knobs; the defaults
 * reproduce the standard Fig. 15/16 measurement.
 */
struct ClusterAttackSpec {
    /** Management scheme under test (ignored when config is set). */
    core::SchemeKind scheme = core::SchemeKind::Pad;
    /**
     * Full configuration override for ablations that tweak knobs
     * beyond the scheme (detector response, placement, charge
     * policy, trait overrides...). When set it is used verbatim;
     * when empty the config is derived from scheme, budgetFraction
     * and clusterBudgetFraction.
     */
    std::optional<core::DataCenterConfig> config;
    /** Virus family. */
    attack::VirusKind kind = attack::VirusKind::CpuIntensive;
    /** Phase-II spike train. */
    attack::SpikeTrain train;
    /** Controlled nodes in each victim rack. */
    int nodes = 4;
    /**
     * Number of racks the attacker holds nodes in ("divide and
     * conquer"): victims are spread across the load distribution
     * below the primary victim's percentile.
     */
    int victimRacks = 12;
    /**
     * Victim rack's load percentile; the same percentile picks the
     * same rack for every scheme, keeping runs comparable.
     */
    double victimPct = 90.0;
    /** Attack window length, seconds. */
    double durationSec = 1500.0;
    /**
     * Window used to rank racks by load when picking victims;
     * <0 follows durationSec.
     */
    double rankWindowSec = -1.0;
    /** Attack duty cycle (Fig. 16-A's "attack rate"). */
    double dutyCycle = 1.0;
    /**
     * Per-rack soft-limit fraction of nameplate for the attacked
     * cluster (only when config is not set).
     */
    double budgetFraction = 0.75;
    /**
     * Cluster (PDU) budget fraction. The paper's threat model
     * targets heavily power-constrained facilities, so attack
     * studies run the PDU tighter than the rack soft limits.
     * (Only when config is not set.)
     */
    double clusterBudgetFraction = 0.70;
    /** Hour of day (on day 2) the attack begins. */
    double attackHour = 11.0;
    /** Low-profile warm-up before Phase I, seconds. */
    double prepareSec = 60.0;
    /** Phase-I give-up bound, seconds. */
    double maxDrainSec = 600.0;
    /** Phase-I learning rounds (side-channel ablation). */
    int learnRounds = 1;
    /** Pause between learning rounds, seconds. */
    double recoverSec = 600.0;
    /**
     * Force the whole fleet to this SOC right before the strike
     * (green-buffer ablation); <0 keeps the warmed-up state.
     */
    double initialSoc = -1.0;
};

/**
 * Days of coarse-grained normal operation (no attack window):
 * SOC-variation and balancing studies.
 */
struct ClusterCoarseSpec {
    /** Management scheme (ignored when config is set). */
    core::SchemeKind scheme = core::SchemeKind::PS;
    /** Full configuration override (see ClusterAttackSpec::config). */
    std::optional<core::DataCenterConfig> config;
    /** Cluster budget fraction (only when config is not set). */
    double clusterBudgetFraction = -1.0;
    /** Run until this many hours of simulated time. */
    double untilHours = 24.0;
    /** Record per-step SOC/shed history rows. */
    bool recordHistory = false;
};

// ---------------------------------------------------------------------
// Experiment / ExperimentResult
// ---------------------------------------------------------------------

/** What a single experiment simulates. */
enum class ExperimentKind {
    RackLab,        ///< mini-rack overload counting
    RackLabServers, ///< mini-rack per-server trace rendering
    ClusterAttack,  ///< warm-up + two-phase attack window
    ClusterCoarse,  ///< coarse normal operation only
};

/**
 * Sentinel for Experiment::seed: use the seeds embedded in the spec
 * (RackLabSpec::seed, DataCenterConfig::seed, AttackerConfig
 * defaults) unchanged.
 */
inline constexpr std::uint64_t kSpecSeed = ~0ULL;

/**
 * One independent simulation job: spec + shared workload reference +
 * seed. Cheap to copy relative to the simulation itself; safe to
 * move across threads.
 */
struct Experiment {
    ExperimentKind kind = ExperimentKind::RackLab;
    /** Mini-rack spec (RackLab / RackLabServers kinds). */
    RackLabSpec lab;
    /** Lab window length, seconds (RackLab kinds). */
    double windowSec = 900.0;
    /** Cluster attack spec (ClusterAttack kind). */
    ClusterAttackSpec attack;
    /** Coarse-run spec (ClusterCoarse kind). */
    ClusterCoarseSpec coarse;
    /**
     * Shared workload (cluster kinds). Not owned: the bench keeps it
     * alive for the duration of the sweep, and every job reads it
     * concurrently without synchronization (const access only).
     */
    const ClusterWorkload *workload = nullptr;
    /**
     * Experiment seed. kSpecSeed (the default) keeps the seeds the
     * spec carries; any other value deterministically overrides the
     * workload-jitter, attacker and lab seeds — this is what
     * SweepRunner::assignSeeds() fills in for seed sweeps.
     */
    std::uint64_t seed = kSpecSeed;
    /**
     * Attach a telemetry hub to the job's DataCenter (cluster kinds
     * only): per-rack power/SOC, PDU totals, policy level, shed
     * count and detector score land in ExperimentResult::hub. Off by
     * default — the zero-cost-when-disabled contract — and purely
     * additive: enabling it never changes simulation results.
     */
    bool telemetryEnabled = false;
    /**
     * Alert rules evaluated online against the job's telemetry and
     * trace streams (cluster kinds only): each job runs its own
     * alert::AlertEngine and the sealed incidents land in
     * ExperimentResult::alerts. Shared read-only across jobs like
     * the workload. nullptr (default) disables alerting entirely —
     * the same zero-cost-when-disabled contract as telemetry — and
     * enabling it never changes simulation results.
     */
    std::shared_ptr<const alert::RuleSet> alertRules;
    /**
     * Engine backend for the cluster kinds. The choice travels with
     * the job, so concurrent sweep workers can mix backends freely.
     * Soa, the batch engine, is the default and runs every
     * configuration; Optimized is the scalar reference engine
     * (physically equivalent, not bit-identical).
     */
    engine::BackendKind backend = engine::BackendKind::Soa;
    /**
     * Attach an engine self-profiler to the job's engine (cluster
     * kinds only): sampled phase timers, cache hit/miss counters,
     * queue depth high-water and arena/scratch footprint land in
     * ExperimentResult::stats under "engine.*" (see
     * engine/prof_stats.h for the names). Off by default — the
     * zero-cost-when-disabled contract — and purely additive:
     * enabling it never changes simulation results.
     */
    bool profileEngine = false;
    /**
     * Replacement wall clock for the profiler's phase timers
     * (tests). nullptr — the default — keeps steady_clock; a
     * deterministic clock makes the full "engine.*" stat set
     * bit-identical between serial and parallel sweeps.
     */
    obs::EngineProfiler::ClockFn profileClock = nullptr;

    /** Make a mini-rack overload-counting experiment. */
    static Experiment rackLab(RackLabSpec spec, double windowSec);
    /** Make a per-server trace-rendering experiment. */
    static Experiment rackLabServers(RackLabSpec spec,
                                     double windowSec);
    /** Make a cluster attack experiment over a shared workload. */
    static Experiment clusterAttack(ClusterAttackSpec spec,
                                    const ClusterWorkload &cw);
    /** Make a coarse normal-operation experiment. */
    static Experiment clusterCoarse(ClusterCoarseSpec spec,
                                    const ClusterWorkload &cw);
};

/** Telemetry shared by the cluster experiment kinds. */
struct ClusterTelemetry {
    /** Anomalies flagged by the optional detector response. */
    std::uint64_t detections = 0;
    /** Phase-I autonomy observations (side-channel ablation). */
    std::vector<double> autonomySamples;
    /** Per-rack SOC after the run. */
    std::vector<double> socs;
    /** SOC spread across racks after the run, percent. */
    double socStdDevPercent = 0.0;
    /** Coarse history (when ClusterCoarseSpec::recordHistory). */
    std::vector<std::vector<double>> socHistory;
    /** Shed-ratio history aligned with socHistory. */
    std::vector<double> shedHistory;
};

/**
 * Result of one experiment. Exactly the member matching the
 * experiment's kind is populated; the accessors assert the kind.
 */
struct ExperimentResult {
    ExperimentKind kind = ExperimentKind::RackLab;
    RackLabResult labResult;
    RackLabServerTrace serverTraces;
    core::AttackOutcome attackOutcome;
    ClusterTelemetry telemetry;
    /**
     * The job's full stats registry (DataCenter::exportStats for
     * cluster kinds, lab summary stats for the rack kinds). Shared
     * pointer because StatsRegistry is move-only while results are
     * copied around freely; derived purely from the experiment value,
     * so it obeys the same determinism contract as every other
     * member.
     */
    std::shared_ptr<sim::StatsRegistry> stats;
    /**
     * The job's telemetry hub; non-null only when the experiment ran
     * with telemetryEnabled (cluster kinds). Shared for the same
     * reason stats is: TelemetryHub is non-copyable while results
     * are copied around freely.
     */
    std::shared_ptr<telemetry::TelemetryHub> hub;
    /**
     * The job's finalized alert engine (incidents + rule states);
     * non-null only when the experiment ran with alertRules set.
     * Shared for the same reason stats is.
     */
    std::shared_ptr<alert::AlertEngine> alerts;

    /** RackLab result (asserts kind). */
    const RackLabResult &lab() const;
    /** RackLabServers traces (asserts kind). */
    const RackLabServerTrace &servers() const;
    /** ClusterAttack outcome (asserts kind). */
    const core::AttackOutcome &attack() const;
    /** Cluster telemetry (asserts a cluster kind). */
    const ClusterTelemetry &cluster() const;
};

/**
 * Execute one experiment on the calling thread. This is the single
 * canonical entry point for launching simulations — SweepRunner runs
 * exactly this function per job, so parallel sweeps are bit-identical
 * to serial loops over runExperiment().
 */
ExperimentResult runExperiment(const Experiment &experiment);

} // namespace pad::runner

#endif // PAD_RUNNER_EXPERIMENT_H
