/**
 * @file
 * The cluster simulation engine (paper Fig. 11-B).
 *
 * Binds the substrates together: a Workload drives per-server
 * utilization; the ServerPowerModel turns it into electrical power;
 * DEB units (KiBaM) shave peaks under the configured management
 * scheme; µDEB super-caps absorb hidden spikes; the security policy
 * escalates through L1/L2/L3; breakers, meters and attack statistics
 * observe the outcome. Two time scales are simulated: coarse steps at
 * the trace's 5-minute granularity for days of normal operation, and
 * fine 100 ms steps inside an attack window.
 *
 * Rack, battery and server state live in parallel arrays, so the
 * per-tick KiBaM step, demand evaluation and µDEB shaving run as
 * tight batch loops over flat state, with every scratch buffer
 * allocated once at construction (the per-run arena) and reused for
 * the engine's lifetime. The per-unit physics — KiBaM wells, LVD,
 * charger latch and wear (battery/), the µDEB guard (core/udeb.h),
 * the breaker and the interval meter (power/) — are free kernels over
 * plain state, run here on one slot of the arrays; the rack-lab
 * components (battery::BatteryUnit and friends) call the same
 * kernels.
 *
 * Two structural optimizations carry the speed:
 *
 *  - Per-second benign caching. Benign demand changes only when the
 *    trace slot or the jitter second changes, and the shed/DVFS
 *    state only at control periods, so the per-rack sums over benign
 *    servers (power, uncapped power, demand, executed work, shed
 *    suppression) are rebuilt at most once per simulated second.
 *    Each fine tick then touches only the attacker-controlled
 *    servers — a handful of pow() calls instead of one per server.
 *
 *  - Counter-based demand streams. The fine-grained jitter is a
 *    CounterRng stream per machine (util/random.h), so any shard can
 *    seek directly to its (machine, second) sample in O(1). The
 *    per-second refresh therefore splits across shards with
 *    bit-identical results: setShards(n) parallelizes only that
 *    refresh (disjoint writes, per-rack sums folded in fixed order),
 *    never the physics, so `n` shards produce exactly the serial
 *    engine's bytes.
 *
 * Both DEB placements run here. The battery arrays hold
 * units-per-rack slots per rack: one cabinet per rack (RackCabinet,
 * where unit index == rack index and the hot loops touch one well
 * per rack) or one BBU per server (PerServer, where unit index ==
 * machine index). Per-server units split a rack's discharge in
 * proportion to stored charge, each bounded by its own server's
 * draw, and recharge lowest-SoC first.
 */

#ifndef PAD_ENGINE_CLUSTER_ENGINE_H
#define PAD_ENGINE_CLUSTER_ENGINE_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "attack/attacker.h"
#include "battery/battery_unit.h"
#include "battery/charge_policy.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "core/security_policy.h"
#include "core/udeb.h"
#include "core/vdeb.h"
#include "power/circuit_breaker.h"
#include "obs/prof.h"
#include "power/server_power_model.h"
#include "sched/load_shedding.h"
#include "sched/perf_monitor.h"
#include "sim/stats_registry.h"
#include "telemetry/hub.h"
#include "trace/workload.h"

namespace pad::engine {

/**
 * The engine's name in run manifests, padsim's table and padd's
 * status: the structure-of-arrays engine. Manifests written while
 * there was a scalar engine may also say "optimized".
 */
inline constexpr const char *kEngineName = "soa";

/** The simulated battery-backed data center. */
class ClusterEngine
{
  public:
    /**
     * @param config   static configuration
     * @param workload utilization timeline (not owned; must outlive
     *                 the engine)
     */
    ClusterEngine(const core::DataCenterConfig &config,
                  const trace::Workload *workload);

    /** Run coarse (trace-slot) steps until tick @p until. */
    void runCoarseUntil(Tick until);

    /**
     * Advance exactly one coarse (trace-slot) step. The unit of
     * progress for callers that interleave simulation with external
     * input — the padd service loop paces and applies control
     * commands on these boundaries. runCoarseUntil(t) is equivalent
     * to stepping while now() < t.
     */
    void stepCoarse();

    /** Enable per-step SOC history recording for map figures. */
    void setRecordHistory(bool on) { recordHistory_ = on; }

    /** SOC history: one row per coarse step, one column per rack. */
    const std::vector<std::vector<double>> &socHistory() const
    {
        return socHistory_;
    }

    /** Shed-ratio history aligned with socHistory. */
    const std::vector<double> &shedHistory() const { return shedHistory_; }

    /**
     * Run a fine-grained attack window starting at the current
     * simulation time, using the present battery state.
     *
     * @param attacker the adversary strategy (advanced in place)
     * @param scenario attack parameters
     */
    core::AttackOutcome runAttack(attack::TwoPhaseAttacker &attacker,
                                  const core::AttackScenario &scenario);

    /** Force every DEB and µDEB to a given SOC (scenario setup). */
    void setAllSoc(double soc);

    /** Present simulation time. */
    Tick now() const { return now_; }

    /** SOC of every rack. */
    std::vector<double> allSocs() const;

    /** Standard deviation of SOC across racks, in percent. */
    double socStdDevPercent() const;

    /** Anomalies flagged by the optional detector response. */
    std::uint64_t detectionsFlagged() const { return detections_; }

    /** Benign-work throughput accounting since construction. */
    const sched::PerfMonitor &perf() const { return perf_; }

    /**
     * Attach a telemetry hub: every control period the engine
     * records per-rack power/draw/SOC/µDEB-SOC, PDU totals, the
     * security level, the shed-server count and the detector score
     * into it. Pass nullptr to detach; the hub is not owned and the
     * default (no hub) costs nothing.
     */
    void setTelemetry(telemetry::TelemetryHub *hub) { telemetry_ = hub; }

    /**
     * Attach/detach a self-profiler (not owned; nullptr detaches).
     * Detached — the default — instrumentation is a pointer test and
     * the engine's outputs are byte-identical to an unprofiled build.
     */
    void setProfiler(obs::EngineProfiler *prof);

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

    /** Static configuration. */
    const core::DataCenterConfig &config() const { return config_; }

    /**
     * Split the per-second demand refresh across @p shards worker
     * threads (1 = serial, the default). Results are bit-identical
     * for every shard count: shard ranges are rack-aligned, writes
     * are disjoint, and each per-rack reduction folds in server
     * order within one shard.
     */
    void setShards(int shards);

    /** Current shard count. */
    int shards() const { return shards_; }

    /**
     * State of charge of every battery unit, rack-major: one per
     * rack for cabinets, one per server for per-server BBUs.
     */
    std::vector<double> unitSocs() const;

  private:
    /** Per-tick power snapshot (arena members, assigned per step). */
    struct StepView {
        double totalPower = 0.0;
        double totalDraw = 0.0;
        double shedSuppressed = 0.0;
    };

    // --- per-unit physics: the battery/ kernels over one slot of the
    //     unit arrays ---
    battery::UnitState unitState(std::size_t u)
    {
        return battery::UnitState{y1_[u],          y2_[u],
                                  lvdTripped_[u],  lvdTrips_[u],
                                  cycleWear_[u],   calendarWear_[u],
                                  dischargedJ_[u], chargedJ_[u]};
    }
    Joules unitStored(std::size_t u) const { return y1_[u] + y2_[u]; }
    double unitSoc(std::size_t u) const
    {
        return battery::kibamSoc(y1_[u], y2_[u], kibam_);
    }
    Watts unitAvailable(std::size_t u, double dt) const
    {
        return battery::unitAvailablePower(y1_[u], y2_[u], lvdTripped_[u],
                                           debUnit_, kibam_, coeffs_, dt);
    }
    void unitIdle(std::size_t u, double dtSec)
    {
        battery::unitRest(unitState(u), debUnit_, kibam_, coeffs_, dtSec);
    }
    /** Discharge unit @p u; @return average power delivered, watts. */
    Watts unitDraw(std::size_t u, Watts ask, double dtSec)
    {
        return battery::unitDischarge(unitState(u), debUnit_, kibam_,
                                      coeffs_, ask, dtSec) /
               dtSec;
    }
    /** Charge unit @p u; @return average power absorbed, watts. */
    Watts unitFill(std::size_t u, Watts offer, double dtSec)
    {
        return battery::unitCharge(unitState(u), debUnit_, kibam_,
                                   coeffs_, offer, dtSec) /
               dtSec;
    }
    bool unitWantsCharge(std::size_t u)
    {
        return battery::chargeWanted(chargerLatch_[u], config_.charge,
                                     unitSoc(u));
    }

    // --- a rack's units: a cabinet is its rack's one unit;
    //     per-server BBUs loop in bbu* ---
    Joules rackStored(std::size_t r) const
    {
        return perServer_ ? bbuStored(r) : unitStored(r);
    }
    Watts rackAvailablePower(std::size_t r, double dt) const
    {
        return perServer_ ? bbuAvailablePower(r, dt) : unitAvailable(r, dt);
    }
    void rackRest(std::size_t r, double dtSec)
    {
        if (perServer_)
            bbuRest(r, dtSec);
        else
            unitIdle(r, dtSec);
    }
    /**
     * Discharge up to @p want watts from rack @p r's units: a cabinet
     * is bounded by @p boundW (the rack draw), per-server units each
     * by their own server's draw, shared in proportion to charge.
     */
    Watts rackDischarge(std::size_t r, Watts want, double dtSec,
                        Watts boundW);
    /**
     * Recharge rack @p r's units from @p headroom watts, lowest SoC
     * first, each taking charge only when the charge policy wants it.
     */
    void rackRecharge(std::size_t r, Watts headroom, double dtSec);

    // Per-server BBU loops, one unit per server.
    Joules bbuStored(std::size_t r) const;
    Watts bbuAvailablePower(std::size_t r, double dt) const;
    void bbuRest(std::size_t r, double dtSec);
    Watts bbuDischarge(std::size_t r, Watts want, double dtSec);
    Watts bbuShaveOwnExcess(std::size_t r, Watts budgetW, double dtSec);
    void bbuRecharge(std::size_t r, Watts headroom, double dtSec);

    // --- µDEB (core/udeb.h kernels over the per-rack arrays) ---
    core::UdebState udebState(std::size_t r)
    {
        return core::UdebState{udebVoltage_[r], udebDischargedJ_[r],
                               udebEngagements_[r], udebEngagedFor_[r]};
    }
    /** Rack @p r's µDEB state of charge (1 when the scheme has none). */
    double rackUdebSoc(std::size_t r) const
    {
        return hasUdeb_ ? battery::capSoc(udebVoltage_[r], config_.udeb.cap)
                        : 1.0;
    }

    // --- detector (power/power_meter.h kernel per rack) ---
    void detectorStep(Tick dt);

    // --- demand + benign cache ---
    void refreshDemand(Tick t, bool fine);
    void rebuildBenign(bool attackMode, int maliciousNodes);
    void refreshShardRange(std::size_t rackLo, std::size_t rackHi,
                           bool rebuildBase, bool rebuildValues, bool fine,
                           std::uint64_t second, bool rebuildSums,
                           bool attackMode, int maliciousNodes);

    // --- per-step pipeline ---
    void computeStep(StepView &step, Tick t, double dtSec, bool fine,
                     const attack::TwoPhaseAttacker *attacker,
                     const core::AttackScenario *scenario,
                     double attackRelSec, bool attackerActive,
                     sched::PerfMonitor *windowPerf);
    /** Per-server BBUs: this step's draw of every server. */
    void fillServerPower(Tick t, const core::AttackScenario *scenario,
                         double atkUtil);
    void applyShaving(StepView &step, double dtSec);
    void fillRackLimits();
    void applyUdeb(StepView &step, double dtSec);
    void rechargeAll(const StepView &step, double dtSec);
    void controlDecisions(const StepView &step, double dtSec);
    void telemetrySample(const StepView &step);

    double rackSoc(std::size_t r) const;
    int sheddedServers() const;
    int mostVulnerableRack() const;
    int medianSocRack() const;

    // --- static configuration ---
    core::DataCenterConfig config_;
    core::SchemeTraits traits_;
    const trace::Workload *workload_;
    power::ServerPowerModel serverModel_;
    core::VdebController vdeb_;
    core::SecurityPolicy policy_;
    sched::LoadShedder shedder_;
    sched::PerfMonitor perf_;
    int shards_ = 1;

    int racks_;
    int serversPerRack_;
    int machines_;

    // Battery placement: one cabinet per rack, or one BBU per server
    // (unitsPerRack_ == serversPerRack_, unit index == machine index).
    bool perServer_;
    std::size_t unitsPerRack_;
    Joules rackCapJ_; ///< summed unit capacity of one rack

    // One parameterization shared by every unit (a cabinet's, or a
    // cabinet split across servers), with one coefficient memo.
    battery::BatteryUnitConfig debUnit_;
    battery::KibamParams kibam_;
    mutable battery::KibamCoeffCache coeffs_;

    // --- battery wells, protection and wear, one slot per unit ---
    std::vector<double> y1_;
    std::vector<double> y2_;
    std::vector<double> dischargedJ_;
    std::vector<double> chargedJ_;
    std::vector<std::uint8_t> lvdTripped_;
    std::vector<int> lvdTrips_;
    std::vector<std::uint8_t> chargerLatch_; ///< offline-policy state
    std::vector<double> cycleWear_;
    std::vector<double> calendarWear_;

    // --- per-server BBUs only (empty for cabinets) ---
    std::vector<double> cacheServerPower_; ///< per-second benign draw
    std::vector<double> serverPower_;      ///< this step's draw
    std::vector<std::size_t> unitOrder_;   ///< recharge order scratch

    // --- µDEB (sized only when the scheme uses it) ---
    bool hasUdeb_;
    std::vector<double> udebVoltage_;
    std::vector<double> udebEngagedFor_;
    std::vector<int> udebEngagements_;
    std::vector<double> udebDischargedJ_;

    // --- breaker ---
    power::CircuitBreakerConfig breaker_;
    std::vector<double> breakerHeat_;
    std::vector<int> breakerTrips_;
    std::vector<Tick> downUntil_;

    // --- detector meters ---
    std::vector<Tick> meterNow_;
    std::vector<Tick> meterIntervalStart_;
    std::vector<double> meterEnergy_; ///< watt-ticks

    // --- control state ---
    std::vector<double> dvfs_;
    std::vector<double> vpEnergy_;
    std::vector<std::uint8_t> shed_; ///< per server, rack-major
    bool visiblePeak_ = false;
    core::SecurityLevel level_ = core::SecurityLevel::Normal;
    Tick clusterCapUntil_ = 0;
    std::uint64_t detections_ = 0;
    Tick firstDetectionTick_ = kTickNever;
    Tick firstEscalationTick_ = kTickNever;

    // --- demand cache (per machine) ---
    std::size_t demandSlot_ = static_cast<std::size_t>(-1);
    std::uint64_t demandSecond_ = ~std::uint64_t{0};
    Tick demandTick_ = kTickNever;
    bool demandFine_ = false;
    std::vector<double> demandBase_;
    std::vector<double> demandValues_;

    // --- per-second benign sums (per rack) ---
    bool benignDirty_ = true;
    bool benignAttackMode_ = false;
    int benignMaliciousNodes_ = 0;
    std::vector<double> cachePower_;
    std::vector<double> cacheUncapped_;
    std::vector<double> cacheDemand_;
    std::vector<double> cacheExecuted_;
    std::vector<double> cacheShedSup_;
    // Benign-demand power evaluations for the attacker-controlled
    // slots (victim racks' first maliciousNodes servers), rebuilt
    // with the benign sums above. Fine ticks where the virus does
    // not outbid the benign trace reuse these instead of paying the
    // pow() per slot per tick.
    std::vector<double> malPower_;
    std::vector<double> malUncapped_;
    std::vector<double> malExecuted_;

    // --- per-step arena scratch ---
    std::vector<double> rackPower_;
    std::vector<double> rackDraw_;
    std::vector<double> rackUncapped_;
    std::vector<double> rackShaved_;
    std::vector<Watts> limits_;
    std::vector<Joules> socScratch_;
    core::VdebAssignment planScratch_;

    // --- attack context (valid inside runAttack) ---
    std::vector<std::uint8_t> victimMask_;

    // --- trace/telemetry names, prebuilt per rack ---
    std::vector<std::string> udebName_;
    std::vector<std::string> breakerName_;
    // Full per-rack metric names, prebuilt so the telemetry sampler
    // never concatenates strings on the hot path.
    std::vector<std::string> powerName_;
    std::vector<std::string> drawName_;
    std::vector<std::string> socName_;
    std::vector<std::string> udebSocName_;

    telemetry::TelemetryHub *telemetry_ = nullptr;
    obs::EngineProfiler *prof_ = nullptr;
    Tick now_ = 0;
    bool recordHistory_ = false;
    std::vector<std::vector<double>> socHistory_;
    std::vector<double> shedHistory_;
};

} // namespace pad::engine

#endif // PAD_ENGINE_CLUSTER_ENGINE_H
