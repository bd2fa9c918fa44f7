/**
 * @file
 * Top-level data-center simulation (paper Fig. 11-B).
 *
 * Binds the substrates together: a Workload drives per-server
 * utilization; the ServerPowerModel turns it into electrical power;
 * per-rack DEB units (KiBaM) shave peaks under the configured
 * management scheme; µDEB super-caps absorb hidden spikes; the
 * security policy escalates through L1/L2/L3; breakers, meters and
 * attack statistics observe the outcome.
 *
 * Two time scales are simulated:
 *  - coarse steps at the trace's 5-minute granularity for days/weeks
 *    of normal operation (battery usage maps, SOC variation);
 *  - fine 100 ms steps inside an attack window, where spike shaving
 *    and breaker thermodynamics matter.
 */

#ifndef PAD_CORE_DATACENTER_H
#define PAD_CORE_DATACENTER_H

#include <memory>
#include <optional>
#include <vector>

#include "attack/attack_stats.h"
#include "attack/attacker.h"
#include "battery/battery_unit.h"
#include "battery/charge_policy.h"
#include "core/config.h"
#include "core/security_policy.h"
#include "core/udeb.h"
#include "core/vdeb.h"
#include "obs/prof.h"
#include "power/circuit_breaker.h"
#include "power/power_meter.h"
#include "power/server_power_model.h"
#include "sched/load_shedding.h"
#include "sched/perf_monitor.h"
#include "sim/stats_registry.h"
#include "sim/time_series.h"
#include "telemetry/hub.h"
#include "trace/workload.h"

namespace pad::core {

/** Outcome of one fine-grained attack window. */
struct AttackOutcome {
    /** Overload statistics at the victim rack. */
    attack::AttackStats rack;
    /** Overload statistics at the cluster/PDU level. */
    attack::AttackStats cluster;
    /** Survival time: attack start to first overload, seconds. */
    double survivalSec = 0.0;
    /** Normalized throughput of benign work over the window. */
    double throughput = 1.0;
    /** Hidden spikes launched by the attacker in Phase II. */
    int spikesLaunched = 0;
    /** Absolute tick windows of each launched spike. */
    std::vector<std::pair<Tick, Tick>> spikeWindows;
    /** Victim-rack total power over the window, 1 sample/control. */
    sim::TimeSeries rackPower{"rack_power"};
    /** Victim-rack utility-side draw after shaving. */
    sim::TimeSeries rackDraw{"rack_draw"};
    /** Victim-rack DEB state of charge. */
    sim::TimeSeries rackSoc{"rack_soc"};
    /** Victim-rack µDEB state of charge (all 1.0 without µDEB). */
    sim::TimeSeries udebSoc{"udeb_soc"};
    /** Security level over the window. */
    sim::TimeSeries level{"level"};
    /** Peak fraction of servers shed at any control period. */
    double maxShedRatio = 0.0;
    /** Attacker phase transitions: seconds into window. */
    double phaseTwoStartSec = -1.0;
};

/** How the adversary's VMs land on a victim rack. */
enum class TargetPolicy {
    /** Attacker co-located onto a given rack (targetRack index). */
    Fixed,
    /**
     * Sophisticated adversary: the rack whose DEB currently holds
     * the least energy (identified through Phase-I style probing).
     */
    MostVulnerable,
    /** Median-SOC rack: a typical co-location outcome. */
    Median,
};

/** Parameters of one attack window. */
struct AttackScenario {
    /** Victim selection policy. */
    TargetPolicy targetPolicy = TargetPolicy::Median;
    /** Victim rack index when targetPolicy == Fixed. */
    int targetRack = -1;
    /**
     * Additional racks the attacker also holds nodes in ("divide and
     * conquer", paper §I): the same malicious load runs on the first
     * controlledNodes servers of each listed rack.
     */
    std::vector<int> extraVictimRacks;
    /**
     * Number of servers the attacker controls in each victim rack;
     * filled from the attacker's controlledNodes by runAttack().
     */
    int maliciousNodes = 0;
    /** Window length, seconds. */
    double durationSec = 1500.0;
    /**
     * Attack duty cycle in [0,1]: fraction of each duty period the
     * attacker is active (Fig. 16-A "attack rate"); 1 = continuous.
     */
    double dutyCycle = 1.0;
    /** Duty period, seconds. */
    double dutyPeriodSec = 120.0;
};

/**
 * Pick a victim rack by workload intensity: racks are ranked by
 * their mean demanded power over [from, to) and the rack at the
 * given percentile (0 = coolest, 100 = hottest) is returned. Benches
 * use this to attack the *same* rack across schemes so survival
 * times are comparable.
 */
int rackByLoadPercentile(const trace::Workload &workload,
                         const DataCenterConfig &config, Tick from,
                         Tick to, double percentile);

/**
 * The simulated battery-backed data center.
 */
class DataCenter
{
  public:
    /**
     * @param config   static configuration
     * @param workload utilization timeline (not owned; must outlive
     *                 the DataCenter)
     */
    DataCenter(const DataCenterConfig &config,
               const trace::Workload *workload);

    /** Advance one coarse (trace-slot) step of normal operation. */
    void stepCoarse();

    /** Run coarse steps until tick @p until. */
    void runCoarseUntil(Tick until);

    /** Enable per-step SOC history recording for map figures. */
    void setRecordHistory(bool on) { recordHistory_ = on; }

    /** SOC history: one row per coarse step, one column per rack. */
    const std::vector<std::vector<double>> &socHistory() const
    {
        return socHistory_;
    }

    /** Shed-ratio history aligned with socHistory (coarse steps). */
    const std::vector<double> &shedHistory() const { return shedHistory_; }

    /**
     * Run a fine-grained attack window starting at the current
     * simulation time, using the present battery state.
     *
     * @param attacker the adversary strategy (advanced in place)
     * @param scenario attack parameters
     */
    AttackOutcome runAttack(attack::TwoPhaseAttacker &attacker,
                            const AttackScenario &scenario);

    /** Present SOC of rack @p rack's DEB. */
    double rackSoc(int rack) const;

    /** SOC of every rack. */
    std::vector<double> allSocs() const;

    /** Standard deviation of SOC across racks, in percent. */
    double socStdDevPercent() const;

    /** Rack with the lowest stored backup energy. */
    int mostVulnerableRack() const;

    /** Rack with the median stored backup energy. */
    int medianSocRack() const;

    /** Force every DEB and µDEB to a given SOC (scenario setup). */
    void setAllSoc(double soc);

    /** Present simulation time. */
    Tick now() const { return now_; }

    /** Jump the clock (e.g. to align an attack with a trace peak). */
    void seekTo(Tick t);

    /** Benign-work throughput accounting since construction. */
    const sched::PerfMonitor &perf() const { return perf_; }

    /** The security policy automaton (PAD schemes only). */
    const SecurityPolicy &policy() const { return policy_; }

    /** Static configuration. */
    const DataCenterConfig &config() const { return config_; }

    /** Number of servers currently shed. */
    int sheddedServers() const;

    /** Anomalies flagged by the optional detector response. */
    std::uint64_t detectionsFlagged() const { return detections_; }

    /**
     * Attach a telemetry hub: every control period the data center
     * records per-rack power/draw/SOC/µDEB-SOC, PDU totals, the
     * security level, the shed-server count and the detector score
     * into it. Pass nullptr to detach; the hub is not owned and the
     * default (no hub) costs nothing.
     */
    void setTelemetry(telemetry::TelemetryHub *hub) { telemetry_ = hub; }

    /** The attached telemetry hub, or nullptr. */
    telemetry::TelemetryHub *telemetry() const { return telemetry_; }

    /**
     * Attach an engine self-profiler: phase timers around demand
     * evaluation, the KiBaM battery step, µDEB shaving, the detector
     * and telemetry sampling, plus DemandCache hit/miss counters and
     * the event-queue high-water mark. Pass nullptr to detach; the
     * profiler is not owned and the default (detached) reduces every
     * instrumentation point to one pointer test.
     */
    void setProfiler(obs::EngineProfiler *prof);

    /** The attached profiler, or nullptr. */
    obs::EngineProfiler *profiler() const { return prof_; }

    /** Tick of the first detector anomaly; kTickNever if none. */
    Tick firstDetectionTick() const { return firstDetectionTick_; }

    /** Tick the policy first left L1-Normal; kTickNever if never. */
    Tick firstEscalationTick() const { return firstEscalationTick_; }

    /**
     * Export the full telemetry of the run into @p stats: per-rack
     * battery state, wear, LVD trips, µDEB engagements, breaker
     * trips, shedding, policy transitions and throughput accounting.
     * Registered names are stable; re-exporting into the same
     * registry overwrites the previous snapshot.
     */
    void exportStats(sim::StatsRegistry &stats) const;

    /** exportStats() rendered as a gem5-style text dump. */
    void dumpStats(std::ostream &os) const;

  private:
    /** Per-rack mutable state. */
    struct RackState {
        /**
         * DEB units backing this rack: one cabinet (RackCabinet) or
         * one BBU per server (PerServer). With per-server placement
         * unit i can only offset server i's own draw.
         */
        std::vector<std::unique_ptr<battery::BatteryUnit>> debs;
        std::unique_ptr<MicroDeb> udeb; // null unless scheme uses it
        std::unique_ptr<power::CircuitBreaker> breaker;
        std::unique_ptr<battery::ChargeController> charger;
        double dvfs = 1.0;   ///< capping factor applied this period
        double vpEnergy = 0.0; ///< rolling energy for VP detection
        Tick downUntil = 0;  ///< rack dark after a breaker trip
        /** Interval meter driving the optional detector response. */
        std::unique_ptr<power::PowerMeter> meter;
        std::size_t meterScanned = 0; ///< readings already examined

        /** Total stored energy across the rack's units, joules. */
        Joules stored() const;
        /** Total rated capacity, joules. */
        Joules capacity() const;
        /** Mean state of charge across units. */
        double soc() const;
        /** Deliverable power over the next @p dt seconds. */
        Watts availablePower(double dt) const;
        /** True when no unit can deliver. */
        bool unavailable() const;
        /**
         * Discharge up to @p want watts for @p dtSec, split across
         * units proportionally to stored charge, each unit bounded
         * by @p unitDrawBound (its server's draw with per-server
         * placement, the rack draw for a cabinet).
         * @return power actually delivered, watts
         */
        Watts discharge(Watts want, double dtSec,
                        const std::vector<Watts> &unitDrawBound);
        /** Idle every unit for @p dtSec. */
        void rest(double dtSec);
        /** Recharge the units from @p headroom watts via charger. */
        void recharge(Watts headroom, double dtSec);

        /**
         * Raw unit pointers for the charge controller, built once
         * after construction (debs never changes afterwards) so
         * recharge() does not rebuild the vector every step.
         */
        std::vector<battery::BatteryUnit *> unitCache;
    };

    /** Demand/draw snapshot for one step. */
    struct StepPower {
        std::vector<double> rackPower;   ///< total demand per rack
        std::vector<double> rackDraw;    ///< utility draw per rack
        /** Demand power at full frequency (capping trigger input). */
        std::vector<double> rackUncapped;
        /** DEB discharge applied this step per rack, watts. */
        std::vector<double> rackShaved;
        /** Per-server power draw, rack-major (for per-server DEBs). */
        std::vector<double> serverPower;
        double totalPower = 0.0;
        double totalDraw = 0.0;
        /** Power currently suppressed by sleeping shed servers. */
        double shedSuppressed = 0.0;
    };

    int machineId(int rack, int server) const;
    double serverDemand(int rack, int server, Tick t, bool fine) const;

    /**
     * Per-machine demand cache for the step at one tick.
     *
     * The trace slot changes every 5 minutes and the jitter second
     * every 10 fine steps, so the flat per-machine demand array is
     * recombined only on those boundaries instead of hashing and
     * indexing the grid for all servers on every step. Values are
     * bit-identical to Workload::utilAt/utilFine by construction
     * (Workload::combineFine over cached slot bases and jitters).
     */
    struct DemandCache {
        Tick tick = kTickNever; ///< tick `values` is valid for
        bool fine = false;      ///< granularity `values` holds
        std::size_t slot = static_cast<std::size_t>(-1);
        std::uint64_t second = ~std::uint64_t{0};
        std::vector<double> base;   ///< slot averages, per machine
        std::vector<double> values; ///< demand at `tick`, per machine
    };

    /**
     * Refresh demand_ for tick @p t and return its per-machine
     * values; after this, serverDemand(r, s, t, fine) is a cached
     * array read for the same (t, fine).
     */
    const std::vector<double> &refreshDemand(Tick t, bool fine);

    /** Compute demand and apply shaving for one step of dt seconds. */
    void computeStep(StepPower &step, Tick t, double dtSec, bool fine,
                     const attack::TwoPhaseAttacker *attacker,
                     const AttackScenario *scenario,
                     const std::vector<bool> *victimMask,
                     double attackRelSec, bool attackerActive,
                     sched::PerfMonitor *windowPerf);

    /** Apply scheme-specific battery shaving; fills rackDraw. */
    void applyShaving(StepPower &step, double dtSec);

    /**
     * Per-rack overload limits for the current step. Non-sharing
     * schemes use the fixed soft-budget limit; sharing schemes get
     * an iPDU allocation raised by the headroom other racks free.
     */
    std::vector<Watts> rackLimits(const StepPower &step) const;

    /** rackLimits() into a caller-owned vector (hot-path variant). */
    void fillRackLimits(const StepPower &step,
                        std::vector<Watts> &limits) const;

    /** µDEB spike shaving against the current limits (fine only). */
    void applyUdeb(StepPower &step, const std::vector<Watts> &limits,
                   double dtSec);

    /** Recharge DEBs and µDEBs from per-rack headroom. */
    void rechargeAll(const StepPower &step, double dtSec);

    /** Control-period decisions: policy, capping, shedding. */
    void controlDecisions(const StepPower &step, double dtSec);

    /** Record the step's signals into the attached telemetry hub. */
    void telemetrySample(const StepPower &step);

    bool isShed(int rack, int server) const;
    std::size_t serverIndex(int rack, int server) const;

    DataCenterConfig config_;
    SchemeTraits traits_;
    const trace::Workload *workload_;
    power::ServerPowerModel serverModel_;
    VdebController vdeb_;
    SecurityPolicy policy_;
    sched::LoadShedder shedder_;
    sched::PerfMonitor perf_;

    /** Feed the detector meters and trigger the capping response. */
    void detectorStep(const StepPower &step, Tick dt);

    std::vector<RackState> racks_;
    /** Per-server shed flags, rack-major (0/1; uint8_t for a flat
     *  byte array in the per-server hot loop). */
    std::vector<std::uint8_t> shed_;
    std::vector<Watts> assigned_;  ///< last vDEB assignment per rack

    // Hot-path scratch, reused across steps so the per-tick path is
    // allocation-free. Each vector is (re)filled before use; none
    // carries state between steps.
    StepPower stepScratch_;
    std::vector<Watts> boundsScratch_;  ///< per-unit discharge bounds
    std::vector<Joules> socScratch_;    ///< per-rack stored energy
    std::vector<Watts> limitsScratch_;  ///< per-rack overload limits
    VdebAssignment planScratch_;        ///< vDEB assignment output
    DemandCache demand_;
    bool visiblePeak_ = false;
    SecurityLevel level_ = SecurityLevel::Normal;
    Tick clusterCapUntil_ = 0;     ///< detector-response cap latch
    std::uint64_t detections_ = 0;
    Tick firstDetectionTick_ = kTickNever;
    Tick firstEscalationTick_ = kTickNever;
    /** Refresh the profiler's arena/scratch byte gauges. */
    void profRefreshGauges();

    telemetry::TelemetryHub *telemetry_ = nullptr;
    obs::EngineProfiler *prof_ = nullptr;

    Tick now_ = 0;
    bool recordHistory_ = false;
    std::vector<std::vector<double>> socHistory_;
    std::vector<double> shedHistory_;
};

} // namespace pad::core

#endif // PAD_CORE_DATACENTER_H
