/**
 * @file
 * Structure-of-arrays batch engine.
 *
 * The scalar core::DataCenter keeps per-rack state behind unique_ptr
 * components (BatteryUnit, MicroDeb, CircuitBreaker, PowerMeter) and
 * walks every server's power curve on every tick. This engine lays
 * the same physics out as parallel arrays over racks and servers so
 * the per-tick KiBaM step, demand evaluation and µDEB shaving run as
 * tight batch loops over flat state, with every scratch buffer
 * allocated once at construction (the per-run arena) and reused for
 * the engine's lifetime.
 *
 * Two structural optimizations carry the speedup:
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
 * Parity contract (asserted by engine_parity_test / soa_backend_test,
 * and by the golden-output ctests): the per-unit physics has one copy.
 * KiBaM wells, LVD, charger latch and wear (battery/), the µDEB guard
 * (core/udeb.h), the breaker and the interval meter (power/) are free
 * kernels over plain state; this engine runs them on one slot of its
 * arrays and the scalar components on their members, so a unit fed
 * the same requests ends in bit-equal state. The engines differ only
 * in rack logic: rack power is summed benign-first rather than in
 * server order, and throughput is accounted per rack rather than per
 * server, so outputs against the scalar engine agree physically
 * (energy conservation, SoC bounds, survival within tolerance)
 * without being bit-identical, and every figure and table prints the
 * same bytes on both.
 *
 * Both DEB placements run here. The battery arrays hold
 * units-per-rack slots per rack: one cabinet per rack (RackCabinet,
 * where unit index == rack index and the hot loops touch one well
 * per rack) or one BBU per server (PerServer, where unit index ==
 * machine index). Per-server units split a rack's discharge in
 * proportion to stored charge, each bounded by its own server's
 * draw, and recharge lowest-SoC first, as core::DataCenter's
 * RackState and battery::ChargeController do.
 */

#ifndef PAD_ENGINE_SOA_ENGINE_H
#define PAD_ENGINE_SOA_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "battery/battery_unit.h"
#include "battery/charge_policy.h"
#include "core/security_policy.h"
#include "core/udeb.h"
#include "core/vdeb.h"
#include "engine/backend.h"
#include "power/circuit_breaker.h"
#include "power/server_power_model.h"
#include "sched/load_shedding.h"
#include "sched/perf_monitor.h"

namespace pad::engine {

/** The SoA batch simulation engine. */
class SoaEngine final : public ClusterEngine
{
  public:
    SoaEngine(const core::DataCenterConfig &config,
              const trace::Workload *workload);

    void runCoarseUntil(Tick until) override;
    void stepCoarse() override;
    void setRecordHistory(bool on) override { recordHistory_ = on; }
    const std::vector<std::vector<double>> &socHistory() const override
    {
        return socHistory_;
    }
    const std::vector<double> &shedHistory() const override
    {
        return shedHistory_;
    }
    core::AttackOutcome
    runAttack(attack::TwoPhaseAttacker &attacker,
              const core::AttackScenario &scenario) override;
    void setAllSoc(double soc) override;
    Tick now() const override { return now_; }
    std::vector<double> allSocs() const override;
    double socStdDevPercent() const override;
    std::uint64_t detectionsFlagged() const override { return detections_; }
    void setTelemetry(telemetry::TelemetryHub *hub) override
    {
        telemetry_ = hub;
    }
    void setProfiler(obs::EngineProfiler *prof) override;
    void exportStats(sim::StatsRegistry &stats) const override;
    void dumpStats(std::ostream &os) const override;
    const core::DataCenterConfig &config() const override { return config_; }
    BackendKind kind() const override { return BackendKind::Soa; }

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

    // --- a rack's units (core::DataCenter::RackState): a cabinet is
    //     its rack's one unit; per-server BBUs loop in bbu* ---
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
    /** ChargeController::recharge over rack @p r's units. */
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

    // --- per-step pipeline (core/datacenter.cc order) ---
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
    Joules rackCapJ_; ///< summed unit capacity, RackState::capacity()

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

#endif // PAD_ENGINE_SOA_ENGINE_H
