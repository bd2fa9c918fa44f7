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
 * Parity contract (asserted by engine_parity_test / soa_backend_test):
 * the physics per battery unit — KiBaM wells, LVD, charger, wear —
 * and per rack — µDEB, breaker, meter — uses the scalar components'
 * arithmetic verbatim, but rack power is summed benign-first rather
 * than in server order, and throughput is accounted per rack rather
 * than per server, so outputs against the scalar engine agree
 * physically (energy conservation, SoC bounds, survival within
 * tolerance) without being bit-identical. Battery aging replicates
 * battery/aging_model.cc per unit (cycle + calendar wear arrays,
 * hooks at the same unitDischarge/unitCharge/unitRest sites as
 * BatteryUnit), so `deb.wear` matches the scalar engine within the
 * parity-test tolerance; everything else in exportStats matches the
 * scalar names too.
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

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/security_policy.h"
#include "core/vdeb.h"
#include "engine/backend.h"
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
    /** Memoized KiBaM closed-form coefficients for one dt. */
    struct Coeffs {
        double dt = -1.0;
        double r = 1.0;       ///< exp(-k * dt)
        double kt = 0.0;      ///< k * dt
        double mspDenom = 0.0;
    };

    /** Per-tick power snapshot (arena members, assigned per step). */
    struct StepView {
        double totalPower = 0.0;
        double totalDraw = 0.0;
        double shedSuppressed = 0.0;
    };

    // --- KiBaM batch physics (arithmetic verbatim battery/kibam.cc:
    //     coefficient cache + scalar bisection) ---
    const Coeffs &coeffsFor(double dt) const;
    void kibamAdvance(std::size_t u, Watts power, double cr, double ckt);
    double availableAfter(std::size_t u, Watts power, double t) const;
    double crossingBisect(std::size_t u, Watts power, double dt) const;
    void clampWells(std::size_t u);
    Watts kibamMsp(std::size_t u, double dt) const;
    Joules kibamStep(std::size_t u, Watts power, double dt);

    // --- DEB unit protection (battery/battery_unit.cc) ---
    void updateLvd(std::size_t u);
    void agingOnDischarge(std::size_t u, Watts power, double dt);
    void agingOnElapsed(std::size_t u, double dt)
    {
        calendarWear_[u] += dt * agingCalendarPerSec_;
    }
    Joules unitDischarge(std::size_t u, Watts requested, double dt);
    Joules unitCharge(std::size_t u, Watts offered, double dt);
    void unitRest(std::size_t u, double dt);
    Watts unitAvailablePower(std::size_t u, double dt) const;

    Joules unitStored(std::size_t u) const { return y1_[u] + y2_[u]; }
    double unitSoc(std::size_t u) const
    {
        return std::clamp(unitStored(u) / capJ_, 0.0, 1.0);
    }

    // --- a rack's units (core::DataCenter::RackState): a cabinet is
    //     its rack's one unit; per-server BBUs loop in bbu* ---
    Joules rackStored(std::size_t r) const
    {
        return perServer_ ? bbuStored(r) : unitStored(r);
    }
    Watts rackAvailablePower(std::size_t r, double dt) const
    {
        return perServer_ ? bbuAvailablePower(r, dt)
                          : unitAvailablePower(r, dt);
    }
    void rackRest(std::size_t r, double dtSec)
    {
        if (perServer_)
            bbuRest(r, dtSec);
        else
            unitRest(r, dtSec);
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
    bool wantsCharge(std::size_t u);

    // Per-server BBU loops, one unit per server.
    Joules bbuStored(std::size_t r) const;
    Watts bbuAvailablePower(std::size_t r, double dt) const;
    void bbuRest(std::size_t r, double dtSec);
    Watts bbuDischarge(std::size_t r, Watts want, double dtSec);
    Watts bbuShaveOwnExcess(std::size_t r, Watts budgetW, double dtSec);
    void bbuRecharge(std::size_t r, Watts headroom, double dtSec);

    // --- µDEB (core/udeb.cc + battery/supercap.cc) ---
    Joules capUsableEnergy(std::size_t r) const;
    Joules capDischarge(std::size_t r, Watts requested, double dt);
    Joules capCharge(std::size_t r, Watts offered, double dt);
    double udebSoc(std::size_t r) const;
    bool udebDepleted(std::size_t r) const;
    Watts udebShave(std::size_t r, Watts excess, double dt);
    Watts udebRecharge(std::size_t r, Watts headroom, double dt);

    // --- breaker + detector (power/circuit_breaker.cc / power_meter.cc) ---
    bool breakerObserve(std::size_t r, Watts power, double dt);
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

    // KiBaM parameters shared by every unit (per-unit capacity and
    // rate limits: a cabinet's, or a cabinet's split across servers).
    double capJ_;
    double kibamC_;
    double kibamK_;
    double maxDischarge_;
    double maxCharge_;
    double lvdDisconnectSoc_;
    double lvdReconnectSoc_;
    mutable std::array<Coeffs, 4> coeffs_;
    mutable std::size_t coeffsNext_ = 0;

    // --- battery wells + protection, one slot per unit ---
    std::vector<double> y1_;
    std::vector<double> y2_;
    std::vector<double> dischargedJ_;
    std::vector<double> chargedJ_;
    std::vector<std::uint8_t> lvdTripped_;
    std::vector<int> lvdTrips_;
    std::vector<std::uint8_t> chargerLatch_; ///< offline-policy state

    // --- battery aging (battery/aging_model.cc arithmetic) ---
    double agingReferenceRateC_;
    double agingStressExponent_;
    double agingThroughputInv_;   ///< 1 / (cycleLife * capacity)
    double agingCalendarPerSec_;  ///< 1 / (calendarLifeHours * 3600)
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
    double breakerRated_;
    double breakerHold_;
    double breakerMagnetic_;
    double breakerThermalCap_;
    double breakerCoolTau_;
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
