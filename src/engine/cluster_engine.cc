#include "engine/cluster_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "obs/tracer.h"
#include "power/power_meter.h"
#include "sched/load_shedding.h"
#include "util/index_sort.h"
#include "util/logging.h"

namespace pad::engine {

static_assert(power::ServerPowerConfig{}.curveExponent ==
                  trace::kTableCurveExponent,
              "the workload's curve table serves the default server curve");

namespace {

/** Stable pseudo-random shedding priority for a server id. */
int
shedPriority(std::size_t serverIdx)
{
    return static_cast<int>((serverIdx * 2654435761ULL) % 97);
}

} // namespace

ClusterEngine::ClusterEngine(const core::DataCenterConfig &config,
                             const trace::Workload *workload)
    : config_(config),
      traits_(config.overrideTraits ? config.traits
                                    : core::schemeTraits(config.scheme)),
      workload_(workload), serverModel_(config.server),
      vdeb_(config.vdeb), policy_(true)
{
    PAD_ASSERT(workload_ != nullptr);
    PAD_ASSERT(config_.racks > 0 && config_.serversPerRack > 0);
    PAD_ASSERT(workload_->machines() >= config_.totalServers(),
               "workload has fewer machines than the cluster");

    racks_ = config_.racks;
    serversPerRack_ = config_.serversPerRack;
    machines_ = config_.totalServers();
    const auto nr = static_cast<std::size_t>(racks_);
    const auto nm = static_cast<std::size_t>(machines_);

    // Every unit shares one parameterization: the cabinet, or the
    // cabinet split into per-server BBUs.
    perServer_ = config_.debPlacement ==
                 core::DataCenterConfig::DebPlacement::PerServer;
    unitsPerRack_ =
        perServer_ ? static_cast<std::size_t>(serversPerRack_) : 1;
    debUnit_ = config_.debUnit();
    battery::checkUnitConfig(debUnit_);
    kibam_ = battery::KibamParams{wattHoursToJoules(debUnit_.capacityWh),
                                  debUnit_.kibamC, debUnit_.kibamK};
    rackCapJ_ = 0.0;
    for (std::size_t i = 0; i < unitsPerRack_; ++i)
        rackCapJ_ += kibam_.capacity;

    const std::size_t nu = nr * unitsPerRack_;
    y1_.assign(nu, 0.0);
    y2_.assign(nu, 0.0);
    for (std::size_t u = 0; u < nu; ++u)
        battery::kibamSetSoc(y1_[u], y2_[u], kibam_, 1.0);
    dischargedJ_.assign(nu, 0.0);
    chargedJ_.assign(nu, 0.0);
    lvdTripped_.assign(nu, 0);
    lvdTrips_.assign(nu, 0);
    chargerLatch_.assign(nu, 0);
    cycleWear_.assign(nu, 0.0);
    calendarWear_.assign(nu, 0.0);
    if (perServer_) {
        cacheServerPower_.assign(nm, 0.0);
        serverPower_.assign(nm, 0.0);
        unitOrder_.reserve(unitsPerRack_);
    }

    hasUdeb_ = traits_.udebSpikes;
    if (hasUdeb_) {
        udebVoltage_.assign(nr, config_.udeb.cap.vMax);
        udebEngagedFor_.assign(nr, 0.0);
        udebEngagements_.assign(nr, 0);
        udebDischargedJ_.assign(nr, 0.0);
    }

    breaker_ = config_.rackBreakerFor(traits_.vdebSharing);
    PAD_ASSERT(breaker_.ratedPower > 0.0 && breaker_.coolTau > 0.0);
    breakerHeat_.assign(nr, 0.0);
    breakerTrips_.assign(nr, 0);
    downUntil_.assign(nr, 0);

    if (config_.detectorResponse) {
        meterNow_.assign(nr, 0);
        meterIntervalStart_.assign(nr, 0);
        meterEnergy_.assign(nr, 0.0);
    }

    dvfs_.assign(nr, 1.0);
    vpEnergy_.assign(nr, 0.0);
    shed_.assign(nm, 0);

    demandBase_.assign(nm, 0.0);
    demandValues_.assign(nm, 0.0);
    demandCurve_.assign(nm, 0.0);
    cachePower_.assign(nr, 0.0);
    cacheUncapped_.assign(nr, 0.0);
    cacheDemand_.assign(nr, 0.0);
    cacheExecuted_.assign(nr, 0.0);
    cacheShedSup_.assign(nr, 0.0);

    rackPower_.assign(nr, 0.0);
    rackDraw_.assign(nr, 0.0);
    rackUncapped_.assign(nr, 0.0);
    rackShaved_.assign(nr, 0.0);
    limits_.assign(nr, 0.0);
    socScratch_.assign(nr, 0.0);
    planScratch_.power.assign(nr, 0.0);
    victimMask_.assign(nr, 0);

    udebName_.reserve(nr);
    breakerName_.reserve(nr);
    for (int r = 0; r < racks_; ++r) {
        const std::string base = "rack" + std::to_string(r);
        udebName_.push_back(base + ".udeb");
        breakerName_.push_back(base + ".breaker");
    }
}

void
ClusterEngine::setProfiler(obs::EngineProfiler *prof)
{
    prof_ = prof;
    if (!prof_)
        return;
    const auto dbytes = [](const std::vector<double> &v) {
        return v.capacity() * sizeof(double);
    };
    // Arena: the construct-once rack/server parallel arrays and the
    // per-second caches.
    std::size_t arena =
        dbytes(y1_) + dbytes(y2_) + dbytes(dischargedJ_) +
        dbytes(chargedJ_) + lvdTripped_.capacity() +
        lvdTrips_.capacity() * sizeof(int) + chargerLatch_.capacity() +
        dbytes(cycleWear_) + dbytes(calendarWear_) +
        dbytes(cacheServerPower_) +
        dbytes(udebVoltage_) + dbytes(udebEngagedFor_) +
        udebEngagements_.capacity() * sizeof(int) +
        dbytes(udebDischargedJ_) + dbytes(breakerHeat_) +
        breakerTrips_.capacity() * sizeof(int) +
        downUntil_.capacity() * sizeof(Tick) +
        meterNow_.capacity() * sizeof(Tick) +
        meterIntervalStart_.capacity() * sizeof(Tick) +
        dbytes(meterEnergy_) + dbytes(dvfs_) + dbytes(vpEnergy_) +
        shed_.capacity() + dbytes(demandBase_) + dbytes(demandValues_) +
        dbytes(demandCurve_) +
        dbytes(cachePower_) + dbytes(cacheUncapped_) +
        dbytes(cacheDemand_) + dbytes(cacheExecuted_) +
        dbytes(cacheShedSup_);
    // Scratch: buffers reassigned every step.
    std::size_t scratch = dbytes(rackPower_) + dbytes(rackDraw_) +
                          dbytes(rackUncapped_) + dbytes(rackShaved_) +
                          dbytes(limits_) + dbytes(socScratch_) +
                          dbytes(serverPower_) +
                          unitOrder_.capacity() * sizeof(std::size_t) +
                          planScratch_.power.capacity() * sizeof(double);
    prof_->setArenaBytes(arena);
    prof_->setScratchBytes(scratch);
}

// ---------------------------------------------------------------------
// A rack's units (the battery/ unit kernels over the unit arrays)
// ---------------------------------------------------------------------

Watts
ClusterEngine::rackDischarge(std::size_t r, Watts want, double dtSec,
                             Watts boundW)
{
    if (perServer_)
        return bbuDischarge(r, want, dtSec);
    // A cabinet's SOC-proportional share of its own rack is exactly 1.
    if (want <= 0.0) {
        unitIdle(r, dtSec);
        return 0.0;
    }
    const double share = unitStored(r) > 0.0 ? 1.0 : 0.0;
    const Watts ask = std::min(want * share, boundW);
    if (ask > 0.0)
        return unitDraw(r, ask, dtSec);
    unitIdle(r, dtSec);
    return 0.0;
}

void
ClusterEngine::rackRecharge(std::size_t r, Watts headroom, double dtSec)
{
    PAD_ASSERT(dtSec >= 0.0);
    if (headroom <= 0.0 || dtSec == 0.0)
        return;
    if (perServer_) {
        bbuRecharge(r, headroom, dtSec);
        return;
    }
    if (unitWantsCharge(r))
        unitFill(r, std::min(headroom, debUnit_.maxChargePower), dtSec);
}

// ---------------------------------------------------------------------
// Per-server BBUs (one unit per server; unit index == machine index)
// ---------------------------------------------------------------------

Joules
ClusterEngine::bbuStored(std::size_t r) const
{
    Joules total = 0.0;
    for (std::size_t u = r * unitsPerRack_; u < (r + 1) * unitsPerRack_;
         ++u)
        total += unitStored(u);
    return total;
}

Watts
ClusterEngine::bbuAvailablePower(std::size_t r, double dt) const
{
    Watts total = 0.0;
    for (std::size_t u = r * unitsPerRack_; u < (r + 1) * unitsPerRack_;
         ++u)
        total += unitAvailable(u, dt);
    return total;
}

void
ClusterEngine::bbuRest(std::size_t r, double dtSec)
{
    for (std::size_t u = r * unitsPerRack_; u < (r + 1) * unitsPerRack_;
         ++u)
        unitIdle(u, dtSec);
}

Watts
ClusterEngine::bbuDischarge(std::size_t r, Watts want, double dtSec)
{
    if (want <= 0.0) {
        bbuRest(r, dtSec);
        return 0.0;
    }
    // Split in proportion to stored charge, each unit bounded by its
    // own server's draw.
    const Joules total = bbuStored(r);
    Watts delivered = 0.0;
    for (std::size_t u = r * unitsPerRack_; u < (r + 1) * unitsPerRack_;
         ++u) {
        const double share = total > 0.0 ? unitStored(u) / total : 0.0;
        const Watts ask = std::min(want * share, serverPower_[u]);
        if (ask > 0.0)
            delivered += unitDraw(u, ask, dtSec);
        else
            unitIdle(u, dtSec);
    }
    return delivered;
}

Watts
ClusterEngine::bbuShaveOwnExcess(std::size_t r, Watts budgetW, double dtSec)
{
    // Each BBU shaves only its own server's excess over the
    // per-server share of the rack budget.
    const Watts serverBudget =
        budgetW / static_cast<double>(serversPerRack_);
    Watts shaved = 0.0;
    for (std::size_t u = r * unitsPerRack_; u < (r + 1) * unitsPerRack_;
         ++u) {
        const Watts excess = std::max(0.0, serverPower_[u] - serverBudget);
        if (excess > 0.0)
            shaved += unitDraw(u, excess, dtSec);
        else
            unitIdle(u, dtSec);
    }
    return shaved;
}

void
ClusterEngine::bbuRecharge(std::size_t r, Watts headroom, double dtSec)
{
    // Lowest SoC first, so the most drained units recover first when
    // headroom is scarce.
    const std::size_t base = r * unitsPerRack_;
    stableIndexSort(
        unitOrder_, unitsPerRack_,
        [&](std::size_t i) { return unitSoc(base + i); }, std::less<>());
    Watts remaining = headroom;
    for (std::size_t i : unitOrder_) {
        if (remaining <= 0.0)
            break;
        const std::size_t u = base + i;
        if (!unitWantsCharge(u))
            continue;
        remaining -= unitFill(u, std::min(remaining, debUnit_.maxChargePower),
                              dtSec);
    }
}

// ---------------------------------------------------------------------
// Detector (one power/power_meter.h interval meter per rack)
// ---------------------------------------------------------------------

void
ClusterEngine::detectorStep(Tick dt)
{
    if (!config_.detectorResponse)
        return;
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        power::meterObserve(
            meterNow_[r], meterIntervalStart_[r], meterEnergy_[r],
            config_.detectorInterval, rackDraw_[r], dt,
            [&](const power::MeterReading &reading) {
                // Flag when the metered average rises measurably above
                // the rack's rolling expectation.
                const Watts avg = reading.average;
                if (vpEnergy_[r] <= 0.0 ||
                    avg <= vpEnergy_[r] * (1.0 + config_.detectorMargin))
                    return;
                ++detections_;
                if (firstDetectionTick_ == kTickNever)
                    firstDetectionTick_ = now_;
                clusterCapUntil_ =
                    now_ + secondsToTicks(config_.detectorCapHoldSec);
                if (obs::traceEnabled())
                    obs::emit("detector", "detector.anomaly",
                              {obs::TraceField::integer(
                                   "rack", static_cast<std::int64_t>(r)),
                               obs::TraceField::num("avg_w", avg),
                               obs::TraceField::num("expected_w",
                                                    vpEnergy_[r])});
            });
    }
}

// ---------------------------------------------------------------------
// Demand + benign cache
// ---------------------------------------------------------------------

void
ClusterEngine::rebuildBenign(bool attackMode, int maliciousNodes)
{
    if (attackMode != benignAttackMode_ ||
        maliciousNodes != benignMaliciousNodes_) {
        benignAttackMode_ = attackMode;
        benignMaliciousNodes_ = maliciousNodes;
        benignDirty_ = true;
    }
}

void
ClusterEngine::refreshDemand(Tick t, bool fine)
{
    const std::size_t slot = workload_->slotAt(t);
    const auto second =
        fine ? static_cast<std::uint64_t>(t / kTicksPerSecond)
             : ~std::uint64_t{0};
    const bool rebuildBase = slot != demandSlot_;
    const bool rebuildValues =
        rebuildBase || (fine != demandFine_) ||
        (fine && second != demandSecond_);
    const bool rebuildSums = rebuildValues || benignDirty_;
    if (!rebuildSums) {
        if (prof_)
            prof_->demandHit();
        return;
    }
    if (prof_)
        prof_->demandMiss();
    const obs::PhaseScope profScope(
        prof_, obs::EngineProfiler::Phase::DemandEval);
    demandSlot_ = slot;

    const auto nm = static_cast<std::size_t>(machines_);
    if (rebuildBase) {
        const double *util = workload_->slotColumn(slot);
        std::copy(util, util + nm, demandBase_.begin());
    }
    if (rebuildValues) {
        const double *curve = nullptr;
        if (fine) {
            // Counter-based jitter: each (machine, second) sample is
            // an O(1) seek into the machine's CounterRng stream.
            for (std::size_t m = 0; m < nm; ++m)
                demandValues_[m] = trace::Workload::combineFine(
                    demandBase_[m],
                    trace::Workload::jitterAt(static_cast<int>(m), second),
                    trace::kDefaultFineNoiseAmp);
        } else {
            std::copy(demandBase_.begin(), demandBase_.end(),
                      demandValues_.begin());
            // Coarse demand is the slot average itself, so the
            // workload's per-cell curve serves it: no pow() here.
            curve = workload_->curveColumn(
                slot, serverModel_.config().curveExponent);
        }
        if (curve)
            std::copy(curve, curve + nm, demandCurve_.begin());
        else
            for (std::size_t m = 0; m < nm; ++m)
                demandCurve_[m] = serverModel_.curve(demandValues_[m]);
    }
    rebuildBenignSums();
    demandSecond_ = second;
    demandFine_ = fine;
    benignDirty_ = false;
}

void
ClusterEngine::rebuildBenignSums()
{
    const auto perRack = static_cast<std::size_t>(serversPerRack_);
    const auto maliciousNodes =
        static_cast<std::size_t>(benignMaliciousNodes_);
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        const bool victimRack = benignAttackMode_ && victimMask_[r];
        const double dvfs = dvfs_[r];
        const std::size_t rackBase = r * perRack;
        double power = 0.0, uncapped = 0.0, demand = 0.0;
        double executed = 0.0, shedSup = 0.0;
        for (std::size_t s = 0; s < perRack; ++s) {
            // Attacker-controlled slots are re-summed per fine tick.
            if (victimRack && s < maliciousNodes)
                continue;
            const std::size_t idx = rackBase + s;
            const double d = demandValues_[idx];
            const double frac = demandCurve_[idx];
            demand += d;
            double p = config_.sleepPower;
            if (shed_[idx]) {
                shedSup +=
                    serverModel_.powerAt(frac, dvfs) - config_.sleepPower;
            } else {
                p = serverModel_.powerAt(frac, dvfs);
                uncapped += serverModel_.powerAt(frac, 1.0);
                executed += serverModel_.executed(d, dvfs);
            }
            power += p;
            if (perServer_)
                cacheServerPower_[idx] = p;
        }
        cachePower_[r] = power;
        cacheUncapped_[r] = uncapped;
        cacheDemand_[r] = demand;
        cacheExecuted_[r] = executed;
        cacheShedSup_[r] = shedSup;
    }
}

// ---------------------------------------------------------------------
// Per-step pipeline
// ---------------------------------------------------------------------

void
ClusterEngine::computeStep(StepView &step, Tick t, double dtSec, bool fine,
                           const attack::TwoPhaseAttacker *attacker,
                           const core::AttackScenario *scenario,
                           double attackRelSec, bool attackerActive,
                           sched::PerfMonitor *windowPerf)
{
    refreshDemand(t, fine);
    step.totalPower = 0.0;
    step.totalDraw = 0.0;
    step.shedSuppressed = 0.0;

    // The virus program is node-independent: every controlled slot
    // demands the same utilization at the same instant. Evaluate it
    // once per tick and memoize the power-model bundle per distinct
    // DVFS level; slots the virus does not outbid fall back to the
    // per-second cache built with the benign sums. Both paths call
    // the exact evaluate() the per-slot walk would, so the sums stay
    // bit-identical.
    const double atkUtil = (attacker && scenario && attackerActive)
                               ? attacker->demandedUtil(0, attackRelSec)
                               : -1.0;
    double memoDvfs = -1.0;
    double memoPower = 0.0, memoUncapped = 0.0, memoExecuted = 0.0;

    const auto perRack = static_cast<std::size_t>(serversPerRack_);
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        // A rack whose breaker tripped is dark until service is
        // restored; its demanded (benign) work is lost outright.
        if (t < downUntil_[r]) {
            perf_.recordShed(cacheDemand_[r], dtSec);
            if (windowPerf)
                windowPerf->recordShed(cacheDemand_[r], dtSec);
            rackPower_[r] = 0.0;
            rackUncapped_[r] = 0.0;
            continue;
        }

        double rackTotal = cachePower_[r];
        double rackUncapped = cacheUncapped_[r];
        step.shedSuppressed += cacheShedSup_[r];

        const bool attackedRack =
            attacker && scenario && victimMask_[r];
        if (attackedRack) {
            const double dvfs = dvfs_[r];
            const std::size_t rackBase = r * perRack;
            for (int s = 0; s < scenario->maliciousNodes; ++s) {
                const std::size_t idx =
                    rackBase + static_cast<std::size_t>(s);
                const double benignU = demandValues_[idx];
                if (shed_[idx]) {
                    rackTotal += config_.sleepPower;
                    step.shedSuppressed +=
                        serverModel_.power(std::max(benignU, atkUtil),
                                           dvfs) -
                        config_.sleepPower;
                } else if (atkUtil > benignU) {
                    if (dvfs != memoDvfs) {
                        if (prof_)
                            prof_->malMemoMiss();
                        serverModel_.evaluate(atkUtil, dvfs, memoPower,
                                              memoUncapped,
                                              memoExecuted);
                        memoDvfs = dvfs;
                    } else if (prof_) {
                        prof_->malMemoHit();
                    }
                    rackTotal += memoPower;
                    rackUncapped += memoUncapped;
                } else {
                    // The virus does not outbid the trace: the benign
                    // demand's cached curve, no pow().
                    if (prof_)
                        prof_->malMemoHit();
                    const double frac = demandCurve_[idx];
                    rackTotal += serverModel_.powerAt(frac, dvfs);
                    rackUncapped += serverModel_.powerAt(frac, 1.0);
                }
            }
        }
        // Benign work is charged per rack from the cached sums.
        perf_.record(cacheDemand_[r], cacheExecuted_[r], dtSec);
        if (windowPerf)
            windowPerf->record(cacheDemand_[r], cacheExecuted_[r],
                               dtSec);
        rackPower_[r] = rackTotal;
        rackUncapped_[r] = rackUncapped;
        step.totalPower += rackTotal;
    }
    if (perServer_)
        fillServerPower(t, scenario, atkUtil);
}

void
ClusterEngine::fillServerPower(Tick t, const core::AttackScenario *scenario,
                               double atkUtil)
{
    // The same per-server draw computeStep summed per rack: benign
    // servers from the per-second cache, the attacker's slots at this
    // tick's virus demand (power() is bit-identical to evaluate()'s
    // power output), nothing from a dark rack.
    const auto perRack = static_cast<std::size_t>(serversPerRack_);
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        const auto first = static_cast<std::ptrdiff_t>(r * perRack);
        const auto last = first + static_cast<std::ptrdiff_t>(perRack);
        if (t < downUntil_[r]) {
            std::fill(serverPower_.begin() + first,
                      serverPower_.begin() + last, 0.0);
            continue;
        }
        std::copy(cacheServerPower_.begin() + first,
                  cacheServerPower_.begin() + last,
                  serverPower_.begin() + first);
        if (!scenario || !victimMask_[r])
            continue;
        for (int s = 0; s < scenario->maliciousNodes; ++s) {
            const std::size_t idx = r * perRack + static_cast<std::size_t>(s);
            if (shed_[idx])
                serverPower_[idx] = config_.sleepPower;
            else if (atkUtil > demandValues_[idx])
                serverPower_[idx] = serverModel_.power(atkUtil, dvfs_[r]);
            else
                serverPower_[idx] =
                    serverModel_.powerAt(demandCurve_[idx], dvfs_[r]);
        }
    }
}

void
ClusterEngine::applyShaving(StepView &step, double dtSec)
{
    const Watts budget = config_.rackBudget();
    const Watts hardLimit = budget * config_.rackBreakerMargin;
    const auto nRacks = static_cast<std::size_t>(racks_);

    if (traits_.vdebSharing) {
        // Cluster-level assignment (Algorithm 1) against the PDU
        // budget, recomputed from live SOC each step.
        for (std::size_t r = 0; r < nRacks; ++r)
            socScratch_[r] = rackStored(r);
        vdeb_.assignInto(socScratch_, step.totalPower,
                         config_.clusterBudget(), planScratch_);
        for (std::size_t r = 0; r < nRacks; ++r) {
            const double powerW = rackPower_[r];
            // A rack cannot offset more than its own draw.
            const Watts want = std::min(planScratch_.power[r], powerW);
            Watts shaved = 0.0;
            if (traits_.peakShaving && want > 0.0)
                shaved = rackDischarge(r, want, dtSec, powerW);
            else
                rackRest(r, dtSec);
            double draw = powerW - shaved;
            // Protect the rack's own wire: extra local discharge if
            // the draw still exceeds the hard circuit rating.
            if (draw > hardLimit) {
                const Watts extra = rackDischarge(r, draw - hardLimit,
                                                  dtSec, powerW);
                draw -= extra;
                shaved += extra;
            }
            rackDraw_[r] = draw;
            rackShaved_[r] = shaved;
        }
    } else {
        for (std::size_t r = 0; r < nRacks; ++r) {
            const double powerW = rackPower_[r];
            Watts shaved = 0.0;
            if (!traits_.peakShaving) {
                rackRest(r, dtSec);
            } else if (perServer_) {
                shaved = bbuShaveOwnExcess(r, budget, dtSec);
            } else {
                const Watts excess = std::max(0.0, powerW - budget);
                if (excess > 0.0)
                    shaved = rackDischarge(r, excess, dtSec, powerW);
                else
                    unitIdle(r, dtSec);
            }
            rackDraw_[r] = powerW - shaved;
            rackShaved_[r] = shaved;
        }
    }

    step.totalDraw =
        std::accumulate(rackDraw_.begin(), rackDraw_.end(), 0.0);
}

void
ClusterEngine::fillRackLimits()
{
    const Watts budget = config_.rackBudget();
    const Watts hardLimit = budget * config_.rackBreakerMargin;
    const auto nRacks = static_cast<std::size_t>(racks_);

    if (!traits_.vdebSharing) {
        std::fill(limits_.begin(), limits_.end(),
                  config_.rackOverloadLimit());
        return;
    }

    // Capacity sharing: the iPDU may raise a rack's soft limit by the
    // headroom the *other* racks actually leave on the PDU, never
    // beyond the rack's hard circuit rating.
    Watts totalHeadroom = 0.0;
    for (std::size_t r = 0; r < nRacks; ++r)
        totalHeadroom += std::max(0.0, budget - rackDraw_[r]);
    for (std::size_t r = 0; r < nRacks; ++r) {
        const Watts own = std::max(0.0, budget - rackDraw_[r]);
        const Watts shared = totalHeadroom - own;
        const Watts allocation = std::min(hardLimit, budget + shared);
        limits_[r] = allocation * (1.0 + config_.overshootTolerance);
    }
}

void
ClusterEngine::applyUdeb(StepView &step, double dtSec)
{
    // µDEB: automatic ORing response.
    //
    // Without sharing it lets sustained above-budget (but
    // below-limit) operation pass -- those visible peaks belong to
    // peak shaving/capping -- and absorbs only the offending part of
    // hidden spikes.
    //
    // Under vDEB sharing the pool normally holds every rack at its
    // budget, so anything still above budget after shaving is pool
    // shortfall (e.g. a synchronized LVD cascade mid-spike); the
    // µDEB bridges those seconds until the software policy escalates
    // -- the "last line of defense against hidden spikes".
    if (!traits_.udebSpikes)
        return;
    const Watts budget = config_.rackBudget();
    const bool poolShortfall =
        step.totalDraw > config_.clusterBudget() + 1e-6;
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        Watts residual = 0.0;
        if (traits_.vdebSharing) {
            if (poolShortfall)
                residual = std::max(0.0, rackDraw_[r] - budget);
        } else {
            residual =
                std::max(0.0, rackDraw_[r] - limits_[r] * 0.999);
        }
        // A zero-residual step disengages the ORing and resets its
        // engagement-duration guard.
        const Watts shaved = core::udebShave(
            udebState(r), config_.udeb, udebName_[r], residual, dtSec);
        if (shaved > 0.0) {
            rackDraw_[r] -= shaved;
            step.totalDraw -= shaved;
        }
    }
}

void
ClusterEngine::rechargeAll(const StepView &step, double dtSec)
{
    (void)step;
    const Watts budget = config_.rackBudget();
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        Watts headroom = std::max(0.0, budget - rackDraw_[r]);
        // µDEB refills first: tiny energy, highest urgency. Called
        // even with zero headroom so an idle step resets the ORing
        // engagement guard.
        if (hasUdeb_ && rackDraw_[r] <= budget)
            headroom -= core::udebRecharge(udebVoltage_[r],
                                           udebEngagedFor_[r], config_.udeb,
                                           headroom, dtSec);
        if (headroom <= 0.0)
            continue;
        // A unit that discharged this step cannot also charge.
        if (rackShaved_[r] > 0.0)
            continue;
        rackRecharge(r, headroom, dtSec);
    }
}

void
ClusterEngine::controlDecisions(const StepView &step, double dtSec)
{
    const Watts budget = config_.rackBudget();
    const auto nRacks = static_cast<std::size_t>(racks_);

    // Visible-peak detection: EMA of each rack's power vs its budget.
    const double alpha =
        1.0 - std::exp(-dtSec / ticksToSeconds(config_.vpWindow));
    bool vp = false;
    for (std::size_t r = 0; r < nRacks; ++r) {
        vpEnergy_[r] += alpha * (rackPower_[r] - vpEnergy_[r]);
        if (vpEnergy_[r] > budget)
            vp = true;
    }
    if (vp != visiblePeak_ && obs::traceEnabled())
        obs::emit("detector", "detector.visible_peak",
                  {obs::TraceField::boolean("active", vp),
                   obs::TraceField::num("budget_w", budget)});
    visiblePeak_ = vp;

    // DVFS capping (PSPC): cap a rack once its DEB's remaining
    // runtime at the present excess falls under a safety window.
    if (traits_.dvfsCapping) {
        constexpr double kRuntimeWindowSec = 300.0;
        for (std::size_t r = 0; r < nRacks; ++r) {
            const Watts excess = rackUncapped_[r] - budget;
            const Joules floor = config_.deb.lvdDisconnectSoc * rackCapJ_;
            const Joules usable =
                std::max(0.0, rackStored(r) - floor);
            const bool needCap =
                excess > 0.0 && usable < excess * kRuntimeWindowSec;
            const double next = needCap ? traits_.dvfsFactor : 1.0;
            if (dvfs_[r] != next) {
                dvfs_[r] = next;
                benignDirty_ = true;
            }
        }
    }

    // Detector-triggered cluster-wide capping.
    if (config_.detectorResponse) {
        if (now_ < clusterCapUntil_) {
            for (std::size_t r = 0; r < nRacks; ++r)
                if (dvfs_[r] != traits_.dvfsFactor) {
                    dvfs_[r] = traits_.dvfsFactor;
                    benignDirty_ = true;
                }
        } else if (!traits_.dvfsCapping) {
            for (std::size_t r = 0; r < nRacks; ++r)
                if (dvfs_[r] != 1.0) {
                    dvfs_[r] = 1.0;
                    benignDirty_ = true;
                }
        }
    }

    // Hierarchical policy + Level-3 shedding (PAD).
    if (traits_.shedding) {
        Watts poolPower = 0.0;
        for (std::size_t r = 0; r < nRacks; ++r)
            poolPower += rackAvailablePower(r, 1.0);
        bool udebOk = !traits_.udebSpikes;
        if (hasUdeb_)
            for (std::size_t r = 0; r < nRacks; ++r)
                if (!battery::capDepleted(udebVoltage_[r], config_.udeb.cap))
                    udebOk = true;

        core::PolicyInputs in;
        in.vdebAvailable = poolPower > 0.01 * config_.clusterBudget();
        in.udebAvailable = udebOk;
        in.visiblePeak = visiblePeak_;
        level_ = policy_.update(in);
        if (level_ != core::SecurityLevel::Normal &&
            firstEscalationTick_ == kTickNever)
            firstEscalationTick_ = now_;

        // Usable fraction of the pool's charge (above LVD floors).
        Joules usable = 0.0, usableCap = 0.0;
        for (std::size_t r = 0; r < nRacks; ++r) {
            const Joules floor = config_.deb.lvdDisconnectSoc * rackCapJ_;
            usable += std::max(0.0, rackStored(r) - floor);
            usableCap += rackCapJ_ - floor;
        }
        const double poolUsable = usable / std::max(usableCap, 1.0);

        const Watts deficit =
            step.totalPower - config_.clusterBudget();
        const bool extreme =
            level_ == core::SecurityLevel::Emergency ||
            (visiblePeak_ &&
             (poolUsable < 0.5 || sheddedServers() > 0));
        if (extreme && deficit > config_.shedTriggerFraction *
                                     config_.clusterBudget()) {
            std::vector<sched::ShedCandidate> candidates;
            for (int r = 0; r < racks_; ++r) {
                for (int s = 0; s < serversPerRack_; ++s) {
                    const auto idx = static_cast<std::size_t>(
                        r * serversPerRack_ + s);
                    if (shed_[idx])
                        continue;
                    const double perServer =
                        rackPower_[static_cast<std::size_t>(r)] /
                        config_.serversPerRack;
                    candidates.push_back(sched::ShedCandidate{
                        static_cast<int>(idx),
                        perServer - config_.sleepPower,
                        shedPriority(idx)});
                }
            }
            const auto decision =
                shedder_.plan(std::move(candidates), deficit);
            for (int id : decision.serversToSleep)
                shed_[static_cast<std::size_t>(id)] = 1;
            if (!decision.serversToSleep.empty())
                benignDirty_ = true;
        } else if (step.totalPower + step.shedSuppressed <=
                   config_.clusterBudget() * 0.98) {
            // The un-shed demand would fit again: wake everything.
            if (std::find(shed_.begin(), shed_.end(),
                          std::uint8_t{1}) != shed_.end()) {
                std::fill(shed_.begin(), shed_.end(), 0);
                benignDirty_ = true;
            }
        }
    }
}

void
ClusterEngine::telemetrySample(const StepView &step)
{
    if (!telemetry_)
        return;
    auto &hub = *telemetry_;
    if (telemetryIds_.empty()) {
        // Resolve in record order so series ids, and with them the
        // listener's view, match recording the row by name.
        for (int r = 0; r < racks_; ++r) {
            const std::string base = "rack" + std::to_string(r);
            for (const char *leaf : {".power", ".draw", ".soc", ".udeb_soc"})
                telemetryIds_.push_back(hub.seriesId(base + leaf));
        }
        for (const char *name : {"pdu.power", "pdu.draw", "policy.level",
                                 "shed.servers", "detector.score"})
            telemetryIds_.push_back(hub.seriesId(name));
    }
    const Watts budget = config_.rackBudget();
    double score = 0.0;
    telemetryRow_.clear();
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        telemetryRow_.insert(telemetryRow_.end(),
                             {rackPower_[r], rackDraw_[r], rackSoc(r),
                              rackUdebSoc(r)});
        if (budget > 0.0)
            score = std::max(score, vpEnergy_[r] / budget);
    }
    telemetryRow_.insert(telemetryRow_.end(),
                         {step.totalPower, step.totalDraw,
                          static_cast<double>(level_),
                          static_cast<double>(sheddedServers()), score});
    hub.recordRow(now_, telemetryIds_.data(), telemetryRow_.data(),
                  telemetryRow_.size());
}

void
ClusterEngine::stepCoarse()
{
    obs::setTraceClock(now_);
    if (prof_)
        prof_->beginStep(/*fine=*/false);
    const double dtSec = ticksToSeconds(config_.coarseStep);
    StepView step;
    computeStep(step, now_, dtSec, /*fine=*/false, nullptr, nullptr,
                0.0, false, nullptr);
    {
        const obs::PhaseScope ps(prof_,
                                 obs::EngineProfiler::Phase::KibamBatch);
        applyShaving(step, dtSec);
    }
    {
        const obs::PhaseScope ps(prof_,
                                 obs::EngineProfiler::Phase::Detector);
        detectorStep(config_.coarseStep);
    }
    {
        const obs::PhaseScope ps(prof_,
                                 obs::EngineProfiler::Phase::KibamBatch);
        rechargeAll(step, dtSec);
    }
    {
        const obs::PhaseScope ps(prof_,
                                 obs::EngineProfiler::Phase::Detector);
        controlDecisions(step, dtSec);
    }
    {
        const obs::PhaseScope ps(
            prof_, obs::EngineProfiler::Phase::TelemetryFlush);
        telemetrySample(step);
    }
    if (prof_ && obs::traceEnabled())
        prof_->emitTraceCounters();

    if (recordHistory_) {
        socHistory_.push_back(allSocs());
        shedHistory_.push_back(
            static_cast<double>(sheddedServers()) /
            static_cast<double>(config_.totalServers()));
    }
    now_ += config_.coarseStep;
}

void
ClusterEngine::runCoarseUntil(Tick until)
{
    while (now_ < until)
        stepCoarse();
}

core::AttackOutcome
ClusterEngine::runAttack(attack::TwoPhaseAttacker &attacker,
                         const core::AttackScenario &scenario)
{
    core::AttackScenario sc = scenario;
    switch (sc.targetPolicy) {
      case core::TargetPolicy::Fixed:
        break;
      case core::TargetPolicy::MostVulnerable:
        sc.targetRack = mostVulnerableRack();
        break;
      case core::TargetPolicy::Median:
        sc.targetRack = medianSocRack();
        break;
    }
    PAD_ASSERT(sc.targetRack >= 0 && sc.targetRack < racks_);
    sc.maliciousNodes = attacker.config().controlledNodes;
    PAD_ASSERT(sc.maliciousNodes >= 1 &&
                   sc.maliciousNodes <= serversPerRack_,
               "attacker controls more nodes than one rack holds");

    core::AttackOutcome out;
    const Tick start = now_;
    const Tick horizon = start + secondsToTicks(sc.durationSec);
    out.rack.setAttackStart(start);
    out.cluster.setAttackStart(start);

    sched::PerfMonitor windowPerf;
    const auto target = static_cast<std::size_t>(sc.targetRack);
    const Watts clusterLimit =
        config_.clusterBudget() *
        (1.0 + (traits_.vdebSharing
                    ? config_.clusterOvershootTolerance
                    : config_.overshootTolerance));

    std::fill(victimMask_.begin(), victimMask_.end(), 0);
    victimMask_[target] = 1;
    for (int r : sc.extraVictimRacks) {
        PAD_ASSERT(r >= 0 && r < racks_);
        victimMask_[static_cast<std::size_t>(r)] = 1;
    }
    rebuildBenign(/*attackMode=*/true, sc.maliciousNodes);

    Tick nextControl = start;
    double malDemandAccum = 0.0;
    double malExecAccum = 0.0;
    std::size_t rackOnsetsSeen = 0;
    std::size_t clusterOnsetsSeen = 0;
    const double dtSec = ticksToSeconds(config_.fineStep);

    while (now_ < horizon) {
        obs::setTraceClock(now_);
        if (prof_)
            prof_->beginStep(/*fine=*/true);
        const double relSec = ticksToSeconds(now_ - start);
        const bool active =
            sc.dutyCycle >= 1.0 ||
            std::fmod(relSec, sc.dutyPeriodSec) <
                sc.dutyCycle * sc.dutyPeriodSec;

        if (now_ >= nextControl) {
            attacker.advance(relSec);
            if (malDemandAccum > 0.0) {
                attacker.observePerformance(
                    relSec, malExecAccum / malDemandAccum,
                    ticksToSeconds(config_.controlPeriod));
                malDemandAccum = 0.0;
                malExecAccum = 0.0;
            }
            nextControl += config_.controlPeriod;
        }

        StepView step;
        computeStep(step, now_, dtSec, /*fine=*/true, &attacker, &sc,
                    relSec, active, &windowPerf);

        // The attacker's performance side channel on its own nodes:
        // demanded vs executed under the target rack's DVFS factor.
        {
            const std::size_t rackBase =
                target * static_cast<std::size_t>(serversPerRack_);
            for (int s = 0; s < sc.maliciousNodes; ++s) {
                const std::size_t idx =
                    rackBase + static_cast<std::size_t>(s);
                double demand = demandValues_[idx];
                if (active)
                    demand = std::max(
                        demand, attacker.demandedUtil(s, relSec));
                const double exec =
                    shed_[idx] ? 0.0
                               : serverModel_.executed(demand,
                                                       dvfs_[target]);
                malDemandAccum += demand * dtSec;
                malExecAccum += exec * dtSec;
            }
        }

        {
            const obs::PhaseScope ps(
                prof_, obs::EngineProfiler::Phase::KibamBatch);
            applyShaving(step, dtSec);
        }
        {
            const obs::PhaseScope ps(
                prof_, obs::EngineProfiler::Phase::UdebShave);
            fillRackLimits();
            applyUdeb(step, dtSec);
        }
        {
            const obs::PhaseScope ps(
                prof_, obs::EngineProfiler::Phase::Detector);
            detectorStep(config_.fineStep);
        }

        // Overload accounting and breaker thermodynamics. A tripped
        // rack goes dark for the recovery period, losing its work.
        bool anyTrip = false;
        for (std::size_t r = 0; r < static_cast<std::size_t>(racks_);
             ++r) {
            if (now_ < downUntil_[r])
                continue;
            if (power::breakerStep(breakerHeat_[r], breakerTrips_[r],
                                   breaker_, breakerName_[r], rackDraw_[r],
                                   dtSec)) {
                anyTrip = true;
                downUntil_[r] =
                    now_ + secondsToTicks(config_.outageRecoverySec);
                breakerHeat_[r] = 0.0; // breaker reset after the trip
                if (obs::traceEnabled())
                    obs::emit("datacenter", "rack.down",
                              {obs::TraceField::integer(
                                   "rack",
                                   static_cast<std::int64_t>(r)),
                               obs::TraceField::num(
                                   "recovery_sec",
                                   config_.outageRecoverySec)});
            }
        }
        // The attack succeeds at the worst victim rack: the highest
        // draw/limit ratio across the racks under attack.
        double worst = 0.0;
        for (std::size_t r = 0; r < static_cast<std::size_t>(racks_);
             ++r) {
            if (!victimMask_[r])
                continue;
            worst = std::max(worst, rackDraw_[r] / limits_[r]);
        }
        out.rack.observe(now_, worst, 1.0, anyTrip);
        out.cluster.observe(now_, step.totalDraw, clusterLimit, false);

        if (obs::traceEnabled()) {
            for (; rackOnsetsSeen < out.rack.overloadOnsets().size();
                 ++rackOnsetsSeen)
                obs::emit(
                    "datacenter", "attack.overload",
                    {obs::TraceField::str("scope", "rack"),
                     obs::TraceField::integer(
                         "onset",
                         static_cast<std::int64_t>(rackOnsetsSeen))});
            for (; clusterOnsetsSeen <
                   out.cluster.overloadOnsets().size();
                 ++clusterOnsetsSeen)
                obs::emit("datacenter", "attack.overload",
                          {obs::TraceField::str("scope", "cluster"),
                           obs::TraceField::integer(
                               "onset", static_cast<std::int64_t>(
                                            clusterOnsetsSeen))});
        }

        {
            const obs::PhaseScope ps(
                prof_, obs::EngineProfiler::Phase::KibamBatch);
            rechargeAll(step, dtSec);
        }

        if (now_ + config_.fineStep >= nextControl) {
            {
                const obs::PhaseScope ps(
                    prof_, obs::EngineProfiler::Phase::Detector);
                controlDecisions(step, dtSec);
            }
            out.rackPower.record(now_, rackPower_[target]);
            out.rackDraw.record(now_, rackDraw_[target]);
            out.rackSoc.record(now_, rackSoc(target));
            out.udebSoc.record(now_, rackUdebSoc(target));
            out.level.record(now_, static_cast<double>(level_));
            out.maxShedRatio = std::max(
                out.maxShedRatio,
                static_cast<double>(sheddedServers()) /
                    static_cast<double>(config_.totalServers()));
            {
                const obs::PhaseScope ps(
                    prof_, obs::EngineProfiler::Phase::TelemetryFlush);
                telemetrySample(step);
            }
            if (prof_ && obs::traceEnabled())
                prof_->emitTraceCounters();
            // DEB depletion curves for the racks under attack.
            if (obs::traceEnabled()) {
                for (std::size_t r = 0;
                     r < static_cast<std::size_t>(racks_); ++r) {
                    if (!victimMask_[r])
                        continue;
                    obs::emit(
                        "telemetry", "soc.sample",
                        {obs::TraceField::integer(
                             "rack", static_cast<std::int64_t>(r)),
                         obs::TraceField::num("soc", rackSoc(r)),
                         obs::TraceField::num("udeb_soc",
                                              rackUdebSoc(r)),
                         obs::TraceField::num("power_w",
                                              rackPower_[r]),
                         obs::TraceField::num("draw_w", rackDraw_[r]),
                         obs::TraceField::integer(
                             "level",
                             static_cast<std::int64_t>(level_))});
                }
            }
        }

        now_ += config_.fineStep;
    }

    // The attack window is over: victim racks fold back into the
    // benign cache.
    std::fill(victimMask_.begin(), victimMask_.end(), 0);
    rebuildBenign(/*attackMode=*/false, 0);

    // Survival: first overload at either scope.
    Tick firstBad = kTickNever;
    for (Tick t : {out.rack.firstOverloadTick(),
                   out.cluster.firstOverloadTick()}) {
        if (t != kTickNever && (firstBad == kTickNever || t < firstBad))
            firstBad = t;
    }
    out.survivalSec = firstBad == kTickNever
                          ? sc.durationSec
                          : ticksToSeconds(firstBad - start);
    out.throughput = windowPerf.normalizedThroughput();
    out.phaseTwoStartSec = attacker.phaseTwoStartSec();

    // Enumerate the Phase-II spikes actually launched in-window.
    if (attacker.phaseTwoStartSec() >= 0.0) {
        const auto &virus = attacker.virus();
        const double p2 = attacker.phaseTwoStartSec();
        for (int i = 0;; ++i) {
            const double s = p2 + virus.spikeStart(i);
            const double e = s + virus.train().widthSec;
            if (e > sc.durationSec)
                break;
            const bool activeAtSpike =
                sc.dutyCycle >= 1.0 ||
                std::fmod(s, sc.dutyPeriodSec) <
                    sc.dutyCycle * sc.dutyPeriodSec;
            if (!activeAtSpike)
                continue;
            out.spikeWindows.emplace_back(start + secondsToTicks(s),
                                          start + secondsToTicks(e));
        }
        out.spikesLaunched =
            static_cast<int>(out.spikeWindows.size());
    }

    if (obs::traceEnabled()) {
        obs::setTraceClock(now_);
        if (out.phaseTwoStartSec >= 0.0)
            obs::emitAt(
                start + secondsToTicks(out.phaseTwoStartSec),
                "attacker", "attack.phase2",
                {obs::TraceField::num("start_sec",
                                      out.phaseTwoStartSec)});
        for (const auto &[s, e] : out.spikeWindows)
            obs::emitSpan(s, e, "attacker", "attack.spike", {});
        obs::emitSpan(
            start, now_, "datacenter", "attack.window",
            {obs::TraceField::num("survival_sec", out.survivalSec),
             obs::TraceField::num("throughput", out.throughput),
             obs::TraceField::integer(
                 "spikes",
                 static_cast<std::int64_t>(out.spikesLaunched))});
    }
    return out;
}

// ---------------------------------------------------------------------
// State accessors + stats
// ---------------------------------------------------------------------

double
ClusterEngine::rackSoc(std::size_t r) const
{
    return rackStored(r) / std::max(rackCapJ_, 1e-9);
}

std::vector<double>
ClusterEngine::allSocs() const
{
    std::vector<double> socs;
    socs.reserve(static_cast<std::size_t>(racks_));
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r)
        socs.push_back(rackSoc(r));
    return socs;
}

std::vector<double>
ClusterEngine::unitSocs() const
{
    std::vector<double> socs;
    socs.reserve(y1_.size());
    for (std::size_t u = 0; u < y1_.size(); ++u)
        socs.push_back(unitStored(u) / kibam_.capacity);
    return socs;
}

double
ClusterEngine::socStdDevPercent() const
{
    const auto socs = allSocs();
    double mean = 0.0;
    for (double s : socs)
        mean += s;
    mean /= static_cast<double>(socs.size());
    double var = 0.0;
    for (double s : socs)
        var += (s - mean) * (s - mean);
    var /= static_cast<double>(socs.size());
    return std::sqrt(var) * 100.0;
}

int
ClusterEngine::medianSocRack() const
{
    std::vector<std::pair<Joules, int>> byEnergy;
    byEnergy.reserve(static_cast<std::size_t>(racks_));
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r)
        byEnergy.emplace_back(rackStored(r), static_cast<int>(r));
    std::sort(byEnergy.begin(), byEnergy.end());
    return byEnergy[byEnergy.size() / 2].second;
}

int
ClusterEngine::mostVulnerableRack() const
{
    int best = 0;
    Joules lowest = rackStored(0);
    for (std::size_t r = 1; r < static_cast<std::size_t>(racks_); ++r) {
        if (rackStored(r) < lowest) {
            lowest = rackStored(r);
            best = static_cast<int>(r);
        }
    }
    return best;
}

void
ClusterEngine::setAllSoc(double soc)
{
    PAD_ASSERT(soc >= 0.0 && soc <= 1.0);
    for (std::size_t u = 0; u < y1_.size(); ++u) {
        battery::kibamSetSoc(y1_[u], y2_[u], kibam_, soc);
        lvdTripped_[u] = 0;
        battery::unitLvdUpdate(unitState(u), debUnit_, kibam_);
    }
    if (hasUdeb_) {
        const double voltage =
            battery::capVoltageAtSoc(config_.udeb.cap, soc > 0.0 ? 1.0 : 0.0);
        std::fill(udebVoltage_.begin(), udebVoltage_.end(), voltage);
        std::fill(udebEngagedFor_.begin(), udebEngagedFor_.end(), 0.0);
    }
    benignDirty_ = true; // LVD state feeds no demand, but stay safe
}

int
ClusterEngine::sheddedServers() const
{
    return static_cast<int>(
        std::count(shed_.begin(), shed_.end(), std::uint8_t{1}));
}

void
ClusterEngine::exportStats(sim::StatsRegistry &stats) const
{
    auto scalar = [&](const std::string &name, double value,
                      const std::string &desc) {
        stats.registerScalar(name, desc).set(value);
    };

    scalar("sim.seconds", ticksToSeconds(now_),
           "simulated time so far");
    scalar("scheme", static_cast<double>(config_.scheme),
           "SchemeKind under evaluation");
    scalar("perf.demanded_work", perf_.demandedWork(),
           "benign utilization-seconds demanded");
    scalar("perf.executed_work", perf_.executedWork(),
           "benign utilization-seconds executed");
    scalar("perf.throughput", perf_.normalizedThroughput(),
           "executed / demanded");
    scalar("policy.transitions",
           static_cast<double>(policy_.transitions()),
           "security-level changes");
    scalar("policy.emergencies",
           static_cast<double>(policy_.emergencies()),
           "entries into Level 3");
    scalar("shed.total", static_cast<double>(shedder_.totalShed()),
           "lifetime server-shed decisions");
    scalar("shed.active", static_cast<double>(sheddedServers()),
           "servers asleep right now");
    scalar("detector.flags", static_cast<double>(detections_),
           "anomalies flagged by the detector response");
    scalar("detector.first_flag_sec",
           firstDetectionTick_ == kTickNever
               ? -1.0
               : ticksToSeconds(firstDetectionTick_),
           "sim time of the first detector anomaly (-1 = none)");
    scalar("policy.first_escalation_sec",
           firstEscalationTick_ == kTickNever
               ? -1.0
               : ticksToSeconds(firstEscalationTick_),
           "sim time the policy first left L1 (-1 = never)");

    std::vector<double> socs, wear;
    double discharged = 0.0, charged = 0.0;
    int lvdTrips = 0, breakerTrips = 0, udebEngagements = 0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(racks_); ++r) {
        socs.push_back(rackSoc(r));
        double rackWear = 0.0;
        for (std::size_t u = r * unitsPerRack_;
             u < (r + 1) * unitsPerRack_; ++u) {
            discharged += dischargedJ_[u];
            charged += chargedJ_[u];
            lvdTrips += lvdTrips_[u];
            rackWear = std::max(rackWear, cycleWear_[u] + calendarWear_[u]);
        }
        wear.push_back(rackWear);
        breakerTrips += breakerTrips_[r];
        if (hasUdeb_)
            udebEngagements += udebEngagements_[r];
    }
    scalar("deb.discharged_wh", joulesToWattHours(discharged),
           "fleet energy discharged");
    scalar("deb.charged_wh", joulesToWattHours(charged),
           "fleet energy recharged");
    scalar("deb.lvd_trips", lvdTrips, "low-voltage disconnects");
    scalar("breaker.trips", breakerTrips, "rack breaker trips");
    scalar("udeb.engagements", udebEngagements,
           "micro-DEB spike engagements");
    stats.setVector("deb.soc", "state of charge per rack",
                    std::move(socs));
    stats.setVector("deb.wear", "worst unit wear per rack",
                    std::move(wear));
}

void
ClusterEngine::dumpStats(std::ostream &os) const
{
    sim::StatsRegistry stats;
    exportStats(stats);
    stats.dump(os);
}

} // namespace pad::engine
