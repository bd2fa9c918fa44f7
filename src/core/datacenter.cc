#include "core/datacenter.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/tracer.h"
#include "util/logging.h"

namespace pad::core {

namespace {

/** Stable pseudo-random shedding priority for a server id. */
int
shedPriority(std::size_t serverIdx)
{
    return static_cast<int>((serverIdx * 2654435761ULL) % 97);
}

} // namespace

Joules
DataCenter::RackState::stored() const
{
    Joules total = 0.0;
    for (const auto &u : debs)
        total += u->stored();
    return total;
}

Joules
DataCenter::RackState::capacity() const
{
    Joules total = 0.0;
    for (const auto &u : debs)
        total += u->capacity();
    return total;
}

double
DataCenter::RackState::soc() const
{
    return stored() / std::max(capacity(), 1e-9);
}

Watts
DataCenter::RackState::availablePower(double dt) const
{
    Watts total = 0.0;
    for (const auto &u : debs)
        total += u->availablePower(dt);
    return total;
}

bool
DataCenter::RackState::unavailable() const
{
    for (const auto &u : debs)
        if (!u->unavailable())
            return false;
    return true;
}

Watts
DataCenter::RackState::discharge(Watts want, double dtSec,
                                 const std::vector<Watts> &unitDrawBound)
{
    PAD_ASSERT(unitDrawBound.size() == debs.size());
    if (want <= 0.0) {
        rest(dtSec);
        return 0.0;
    }
    const Joules total = stored();
    Watts delivered = 0.0;
    for (std::size_t i = 0; i < debs.size(); ++i) {
        const double share =
            total > 0.0 ? debs[i]->stored() / total : 0.0;
        const Watts ask =
            std::min(want * share, unitDrawBound[i]);
        if (ask > 0.0)
            delivered += debs[i]->discharge(ask, dtSec) / dtSec;
        else
            debs[i]->rest(dtSec);
    }
    return delivered;
}

void
DataCenter::RackState::rest(double dtSec)
{
    for (auto &u : debs)
        u->rest(dtSec);
}

void
DataCenter::RackState::recharge(Watts headroom, double dtSec)
{
    charger->recharge(unitCache, headroom, dtSec);
}

int
rackByLoadPercentile(const trace::Workload &workload,
                     const DataCenterConfig &config, Tick from, Tick to,
                     double percentile)
{
    PAD_ASSERT(to > from);
    PAD_ASSERT(percentile >= 0.0 && percentile <= 100.0);
    power::ServerPowerModel model(config.server);
    std::vector<std::pair<double, int>> byPower;
    for (int r = 0; r < config.racks; ++r) {
        double acc = 0.0;
        int samples = 0;
        for (Tick t = from; t < to; t += config.coarseStep) {
            for (int s = 0; s < config.serversPerRack; ++s) {
                const int machine = r * config.serversPerRack + s;
                acc += model.power(workload.utilAt(machine, t));
            }
            ++samples;
        }
        byPower.emplace_back(acc / std::max(samples, 1), r);
    }
    std::sort(byPower.begin(), byPower.end());
    const auto idx = static_cast<std::size_t>(
        percentile / 100.0 *
        static_cast<double>(byPower.size() - 1));
    return byPower[idx].second;
}

DataCenter::DataCenter(const DataCenterConfig &config,
                       const trace::Workload *workload)
    : config_(config),
      traits_(config.overrideTraits ? config.traits
                                    : schemeTraits(config.scheme)),
      workload_(workload), serverModel_(config.server),
      vdeb_(config.vdeb), policy_(true)
{
    PAD_ASSERT(workload_ != nullptr);
    PAD_ASSERT(config_.racks > 0 && config_.serversPerRack > 0);
    PAD_ASSERT(workload_->machines() >= config_.totalServers(),
               "workload has fewer machines than the cluster");

    racks_.resize(static_cast<std::size_t>(config_.racks));
    assigned_.assign(racks_.size(), 0.0);
    shed_.assign(static_cast<std::size_t>(config_.totalServers()), 0);

    for (int r = 0; r < config_.racks; ++r) {
        auto &rack = racks_[static_cast<std::size_t>(r)];
        const std::string base = "rack" + std::to_string(r);
        const battery::BatteryUnitConfig unit = config_.debUnit();
        if (config_.debPlacement ==
            DataCenterConfig::DebPlacement::RackCabinet) {
            rack.debs.push_back(
                std::make_unique<battery::BatteryUnit>(base + ".deb", unit));
        } else {
            for (int s = 0; s < config_.serversPerRack; ++s)
                rack.debs.push_back(
                    std::make_unique<battery::BatteryUnit>(
                        base + ".bbu" + std::to_string(s), unit));
        }
        if (traits_.udebSpikes)
            rack.udeb =
                std::make_unique<MicroDeb>(base + ".udeb", config_.udeb);
        rack.breaker = std::make_unique<power::CircuitBreaker>(
            base + ".breaker", config_.rackBreakerFor(traits_.vdebSharing));
        rack.charger = std::make_unique<battery::ChargeController>(
            config_.charge);
        if (config_.detectorResponse)
            rack.meter = std::make_unique<power::PowerMeter>(
                base + ".meter", config_.detectorInterval);
    }

    for (auto &rack : racks_) {
        rack.unitCache.reserve(rack.debs.size());
        for (auto &u : rack.debs)
            rack.unitCache.push_back(u.get());
    }
}

void
DataCenter::detectorStep(const StepPower &step, Tick dt)
{
    if (!config_.detectorResponse)
        return;
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        auto &rack = racks_[r];
        rack.meter->observe(step.rackDraw[r], dt);
        const auto &readings = rack.meter->readings();
        for (; rack.meterScanned < readings.size();
             ++rack.meterScanned) {
            const Watts avg = readings[rack.meterScanned].average;
            // Flag when the metered average rises measurably above
            // the rack's rolling expectation.
            if (rack.vpEnergy > 0.0 &&
                avg > rack.vpEnergy * (1.0 + config_.detectorMargin)) {
                ++detections_;
                if (firstDetectionTick_ == kTickNever)
                    firstDetectionTick_ = now_;
                clusterCapUntil_ =
                    now_ + secondsToTicks(config_.detectorCapHoldSec);
                if (obs::traceEnabled())
                    obs::emit("detector", "detector.anomaly",
                              {obs::TraceField::integer(
                                   "rack",
                                   static_cast<std::int64_t>(r)),
                               obs::TraceField::num("avg_w", avg),
                               obs::TraceField::num("expected_w",
                                                    rack.vpEnergy)});
            }
        }
    }
}

int
DataCenter::machineId(int rack, int server) const
{
    return rack * config_.serversPerRack + server;
}

std::size_t
DataCenter::serverIndex(int rack, int server) const
{
    return static_cast<std::size_t>(machineId(rack, server));
}

bool
DataCenter::isShed(int rack, int server) const
{
    return shed_[serverIndex(rack, server)];
}

double
DataCenter::serverDemand(int rack, int server, Tick t, bool fine) const
{
    const int machine = machineId(rack, server);
    if (demand_.tick == t && demand_.fine == fine)
        return demand_.values[static_cast<std::size_t>(machine)];
    return fine ? workload_->utilFine(machine, t)
                : workload_->utilAt(machine, t);
}

const std::vector<double> &
DataCenter::refreshDemand(Tick t, bool fine)
{
    DemandCache &dc = demand_;
    if (dc.tick == t && dc.fine == fine) {
        if (prof_)
            prof_->demandHit();
        return dc.values;
    }
    if (prof_)
        prof_->demandMiss();
    const obs::PhaseScope profScope(
        prof_, obs::EngineProfiler::Phase::DemandEval);

    const auto machines =
        static_cast<std::size_t>(config_.totalServers());
    const std::size_t slot = workload_->slotAt(t);
    if (dc.slot != slot || dc.base.size() != machines) {
        dc.base.resize(machines);
        for (std::size_t m = 0; m < machines; ++m)
            dc.base[m] =
                workload_->utilAtSlot(static_cast<int>(m), slot);
        dc.slot = slot;
        dc.second = ~std::uint64_t{0};
    }
    if (fine) {
        const auto second =
            static_cast<std::uint64_t>(t / kTicksPerSecond);
        if (dc.second != second || dc.values.size() != machines) {
            dc.values.resize(machines);
            for (std::size_t m = 0; m < machines; ++m)
                dc.values[m] = trace::Workload::combineFine(
                    dc.base[m],
                    trace::Workload::jitterAt(static_cast<int>(m),
                                              second),
                    trace::kDefaultFineNoiseAmp);
            dc.second = second;
        }
    } else {
        dc.values = dc.base;
        dc.second = ~std::uint64_t{0}; // values hold no jitter now
    }
    dc.tick = t;
    dc.fine = fine;
    return dc.values;
}

void
DataCenter::computeStep(StepPower &step, Tick t, double dtSec, bool fine,
                        const attack::TwoPhaseAttacker *attacker,
                        const AttackScenario *scenario,
                        const std::vector<bool> *victimMask,
                        double attackRelSec, bool attackerActive,
                        sched::PerfMonitor *windowPerf)
{
    step.rackPower.assign(racks_.size(), 0.0);
    step.rackDraw.assign(racks_.size(), 0.0);
    step.rackUncapped.assign(racks_.size(), 0.0);
    step.serverPower.assign(
        static_cast<std::size_t>(config_.totalServers()), 0.0);
    step.totalPower = 0.0;
    step.totalDraw = 0.0;
    step.shedSuppressed = 0.0;

    // Per-step invariants, hoisted out of the per-server walk.
    const double *demand = refreshDemand(t, fine).data();
    const std::uint8_t *shedFlags = shed_.data();
    double *serverPower = step.serverPower.data();

    for (int r = 0; r < config_.racks; ++r) {
        auto &rack = racks_[static_cast<std::size_t>(r)];
        const std::size_t rackBase =
            static_cast<std::size_t>(r) *
            static_cast<std::size_t>(config_.serversPerRack);

        // A rack whose breaker tripped is dark until service is
        // restored; its demanded work is lost outright.
        if (t < rack.downUntil) {
            const bool victimRack =
                victimMask &&
                (*victimMask)[static_cast<std::size_t>(r)] && scenario;
            for (int s = 0; s < config_.serversPerRack; ++s) {
                const double demandU =
                    demand[rackBase + static_cast<std::size_t>(s)];
                const bool malicious =
                    victimRack && s < scenario->maliciousNodes;
                if (!malicious) {
                    perf_.recordShed(demandU, dtSec);
                    if (windowPerf)
                        windowPerf->recordShed(demandU, dtSec);
                }
            }
            continue;
        }

        const bool attackedRack =
            attacker && scenario && victimMask &&
            (*victimMask)[static_cast<std::size_t>(r)];
        const double dvfs = rack.dvfs;
        double rackTotal = 0.0;
        double rackUncapped = 0.0;
        for (int s = 0; s < config_.serversPerRack; ++s) {
            const std::size_t idx =
                rackBase + static_cast<std::size_t>(s);
            double demandU = demand[idx];
            bool malicious = false;
            if (attackedRack && s < scenario->maliciousNodes) {
                malicious = true;
                if (attackerActive)
                    demandU = std::max(
                        demandU,
                        attacker->demandedUtil(s, attackRelSec));
            }

            double powerW;
            double executed;
            if (shedFlags[idx]) {
                powerW = config_.sleepPower;
                executed = 0.0;
                step.shedSuppressed +=
                    serverModel_.power(demandU, dvfs) - powerW;
            } else {
                // One pow() yields capped power, uncapped power and
                // executed throughput (bit-identical to the scalar
                // power()/executed() accessors).
                double uncapped;
                serverModel_.evaluate(demandU, dvfs, powerW, uncapped,
                                      executed);
                rackUncapped += uncapped;
            }
            serverPower[idx] = powerW;
            rackTotal += powerW;

            if (!malicious) {
                perf_.record(demandU, executed, dtSec);
                if (windowPerf)
                    windowPerf->record(demandU, executed, dtSec);
            }
        }
        step.rackPower[static_cast<std::size_t>(r)] = rackTotal;
        step.rackUncapped[static_cast<std::size_t>(r)] = rackUncapped;
        step.totalPower += rackTotal;
    }
}

void
DataCenter::applyShaving(StepPower &step, double dtSec)
{
    const Watts budget = config_.rackBudget();
    const Watts hardLimit = budget * config_.rackBreakerMargin;
    step.rackShaved.assign(racks_.size(), 0.0);

    const bool perServer =
        config_.debPlacement ==
        DataCenterConfig::DebPlacement::PerServer;

    // Bound on what each unit may offset: its own server's draw with
    // per-server placement, the rack's draw for a cabinet. One
    // scratch vector is reused across racks.
    auto unitBounds =
        [&](std::size_t r) -> const std::vector<Watts> & {
        auto &rack = racks_[r];
        std::vector<Watts> &bounds = boundsScratch_;
        bounds.assign(rack.debs.size(), 0.0);
        if (perServer) {
            for (std::size_t s = 0; s < bounds.size(); ++s)
                bounds[s] = step.serverPower[serverIndex(
                    static_cast<int>(r), static_cast<int>(s))];
        } else {
            bounds[0] = step.rackPower[r];
        }
        return bounds;
    };

    if (traits_.vdebSharing) {
        // Cluster-level assignment (Algorithm 1) against the PDU
        // budget, recomputed from live SOC each step.
        std::vector<Joules> &soc = socScratch_;
        soc.resize(racks_.size());
        for (std::size_t r = 0; r < racks_.size(); ++r)
            soc[r] = racks_[r].stored();
        VdebAssignment &plan = planScratch_;
        vdeb_.assignInto(soc, step.totalPower,
                         config_.clusterBudget(), plan);
        assigned_ = plan.power;

        for (std::size_t r = 0; r < racks_.size(); ++r) {
            auto &rack = racks_[r];
            const double powerW = step.rackPower[r];
            const auto &bounds = unitBounds(r);
            // A rack cannot offset more than its own draw.
            const Watts want = std::min(plan.power[r], powerW);
            Watts shaved = 0.0;
            if (traits_.peakShaving && want > 0.0)
                shaved = rack.discharge(want, dtSec, bounds);
            else
                rack.rest(dtSec);
            double draw = powerW - shaved;
            // Protect the rack's own wire: extra local discharge if
            // the draw still exceeds the hard circuit rating.
            if (draw > hardLimit) {
                const Watts extra = rack.discharge(
                    draw - hardLimit, dtSec, bounds);
                draw -= extra;
                shaved += extra;
            }
            step.rackDraw[r] = draw;
            step.rackShaved[r] = shaved;
        }
    } else {
        const Watts serverBudget =
            budget / static_cast<double>(config_.serversPerRack);
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            auto &rack = racks_[r];
            const double powerW = step.rackPower[r];
            Watts shaved = 0.0;
            if (!traits_.peakShaving) {
                rack.rest(dtSec);
            } else if (perServer) {
                // Each BBU shaves only its own server's excess over
                // the per-server share of the rack budget.
                for (std::size_t s = 0; s < rack.debs.size(); ++s) {
                    const Watts p = step.serverPower[serverIndex(
                        static_cast<int>(r), static_cast<int>(s))];
                    const Watts excess =
                        std::max(0.0, p - serverBudget);
                    if (excess > 0.0)
                        shaved += rack.debs[s]->discharge(
                                      excess, dtSec) /
                                  dtSec;
                    else
                        rack.debs[s]->rest(dtSec);
                }
            } else {
                const Watts excess = std::max(0.0, powerW - budget);
                if (excess > 0.0)
                    shaved = rack.discharge(excess, dtSec,
                                            unitBounds(r));
                else
                    rack.rest(dtSec);
            }
            step.rackDraw[r] = powerW - shaved;
            step.rackShaved[r] = shaved;
        }
    }

    step.totalDraw = std::accumulate(step.rackDraw.begin(),
                                     step.rackDraw.end(), 0.0);
}

std::vector<Watts>
DataCenter::rackLimits(const StepPower &step) const
{
    std::vector<Watts> limits;
    fillRackLimits(step, limits);
    return limits;
}

void
DataCenter::fillRackLimits(const StepPower &step,
                           std::vector<Watts> &limits) const
{
    const Watts budget = config_.rackBudget();
    const Watts hardLimit = budget * config_.rackBreakerMargin;
    limits.resize(racks_.size());

    if (!traits_.vdebSharing) {
        std::fill(limits.begin(), limits.end(),
                  config_.rackOverloadLimit());
        return;
    }

    // Capacity sharing: the iPDU may raise a rack's soft limit by
    // the headroom the *other* racks actually leave on the PDU
    // (natural slack plus what their batteries freed), never beyond
    // the rack's hard circuit rating.
    Watts totalHeadroom = 0.0;
    for (std::size_t r = 0; r < racks_.size(); ++r)
        totalHeadroom += std::max(0.0, budget - step.rackDraw[r]);
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        const Watts own = std::max(0.0, budget - step.rackDraw[r]);
        const Watts shared = totalHeadroom - own;
        const Watts allocation =
            std::min(hardLimit, budget + shared);
        limits[r] = allocation * (1.0 + config_.overshootTolerance);
    }
}

void
DataCenter::applyUdeb(StepPower &step, const std::vector<Watts> &limits,
                      double dtSec)
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
    // Under sharing, µDEBs stay out of the pool's way: they engage
    // only while the PDU itself is over budget (pool shortfall).
    const bool poolShortfall =
        step.totalDraw > config_.clusterBudget() + 1e-6;
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        auto &rack = racks_[r];
        if (!rack.udeb)
            continue;
        Watts residual = 0.0;
        if (traits_.vdebSharing) {
            if (poolShortfall)
                residual = std::max(0.0, step.rackDraw[r] - budget);
        } else {
            residual =
                std::max(0.0, step.rackDraw[r] - limits[r] * 0.999);
        }
        // A zero-residual step disengages the ORing and resets its
        // engagement-duration guard.
        const Watts shaved = rack.udeb->shave(residual, dtSec);
        if (shaved > 0.0) {
            step.rackDraw[r] -= shaved;
            step.totalDraw -= shaved;
        }
    }
}

void
DataCenter::rechargeAll(const StepPower &step, double dtSec)
{
    const Watts budget = config_.rackBudget();
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        auto &rack = racks_[r];
        Watts headroom = std::max(0.0, budget - step.rackDraw[r]);
        // µDEB refills first: tiny energy, highest urgency. Called
        // even with zero headroom so an idle step resets the ORing
        // engagement guard.
        if (rack.udeb && step.rackDraw[r] <= budget)
            headroom -= rack.udeb->recharge(headroom, dtSec);
        if (headroom <= 0.0)
            continue;
        // A unit that discharged this step cannot also charge.
        if (step.rackShaved[r] > 0.0)
            continue;
        rack.recharge(headroom, dtSec);
    }
}

void
DataCenter::controlDecisions(const StepPower &step, double dtSec)
{
    const Watts budget = config_.rackBudget();

    // Visible-peak detection: exponential moving average of each
    // rack's power against its budget.
    const double alpha =
        1.0 - std::exp(-dtSec / ticksToSeconds(config_.vpWindow));
    bool vp = false;
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        auto &rack = racks_[r];
        rack.vpEnergy += alpha * (step.rackPower[r] - rack.vpEnergy);
        if (rack.vpEnergy > budget)
            vp = true;
    }
    if (vp != visiblePeak_ && obs::traceEnabled())
        obs::emit("detector", "detector.visible_peak",
                  {obs::TraceField::boolean("active", vp),
                   obs::TraceField::num("budget_w", budget)});
    visiblePeak_ = vp;

    // DVFS capping (PSPC): cap a rack once its DEB's remaining
    // runtime at the present excess falls under a safety window --
    // power managers cap on estimated battery minutes, not on the
    // instant the cabinet dies.
    if (traits_.dvfsCapping) {
        constexpr double kRuntimeWindowSec = 300.0;
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            auto &rack = racks_[r];
            // Trigger on what the rack would draw at full frequency,
            // otherwise the cap un-sets itself every control period.
            const Watts excess = step.rackUncapped[r] - budget;
            const Joules floor = config_.deb.lvdDisconnectSoc *
                                 rack.capacity();
            const Joules usable =
                std::max(0.0, rack.stored() - floor);
            const bool needCap =
                excess > 0.0 && usable < excess * kRuntimeWindowSec;
            rack.dvfs = needCap ? traits_.dvfsFactor : 1.0;
        }
    }

    // Detector-triggered cluster-wide capping (paper §III-B): blunt
    // but immediate once an anomaly is flagged.
    if (config_.detectorResponse) {
        if (now_ < clusterCapUntil_) {
            for (auto &rack : racks_)
                rack.dvfs = traits_.dvfsFactor;
        } else if (!traits_.dvfsCapping) {
            for (auto &rack : racks_)
                rack.dvfs = 1.0;
        }
    }

    // Hierarchical policy + Level-3 shedding (PAD).
    if (traits_.shedding) {
        // The pool is "available" while it can still deliver a
        // meaningful share of the cluster budget; LVD-tripped units
        // hold stranded charge that counts for nothing.
        Watts poolPower = 0.0;
        for (const auto &rack : racks_)
            poolPower += rack.availablePower(1.0);
        bool udebOk = !traits_.udebSpikes;
        for (const auto &rack : racks_)
            if (rack.udeb && !rack.udeb->depleted())
                udebOk = true;

        PolicyInputs in;
        in.vdebAvailable =
            poolPower > 0.01 * config_.clusterBudget();
        in.udebAvailable = udebOk;
        in.visiblePeak = visiblePeak_;
        level_ = policy_.update(in);
        if (level_ != SecurityLevel::Normal &&
            firstEscalationTick_ == kTickNever)
            firstEscalationTick_ = now_;

        // Usable fraction of the pool's charge (above LVD floors).
        Joules usable = 0.0, usableCap = 0.0;
        for (const auto &rack : racks_) {
            const Joules floor = config_.deb.lvdDisconnectSoc *
                                 rack.capacity();
            usable += std::max(0.0, rack.stored() - floor);
            usableCap += rack.capacity() - floor;
        }
        const double poolUsable = usable / std::max(usableCap, 1.0);

        // Shedding engages at Level 3, or proactively during a
        // sustained cluster-wide peak that is aggressively draining
        // the pool ("only in extreme cases when cluster-wide power
        // peaks appear", paper §VI-A). The shortfall is measured on
        // *demand*: while the pool still shaves, the utility draw
        // sits exactly at the budget and would hide it.
        const Watts deficit = step.totalPower - config_.clusterBudget();
        // Once shedding has begun it stays engaged while the visible
        // peak persists, so residual (spike-driven) deficits keep
        // being closed instead of slowly bleeding the pool.
        const bool extreme =
            level_ == SecurityLevel::Emergency ||
            (visiblePeak_ &&
             (poolUsable < 0.5 || sheddedServers() > 0));
        if (extreme && deficit > config_.shedTriggerFraction *
                                     config_.clusterBudget()) {
            std::vector<sched::ShedCandidate> candidates;
            for (int r = 0; r < config_.racks; ++r) {
                for (int s = 0; s < config_.serversPerRack; ++s) {
                    const std::size_t idx = serverIndex(r, s);
                    if (shed_[idx])
                        continue;
                    const double perServer =
                        step.rackPower[static_cast<std::size_t>(r)] /
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
                shed_[static_cast<std::size_t>(id)] = true;
        } else if (step.totalPower + step.shedSuppressed <=
                   config_.clusterBudget() * 0.98) {
            // The un-shed demand would fit again: wake everything.
            std::fill(shed_.begin(), shed_.end(), false);
        }
    }
}

void
DataCenter::setProfiler(obs::EngineProfiler *prof)
{
    prof_ = prof;
    if (prof_)
        profRefreshGauges();
}

void
DataCenter::profRefreshGauges()
{
    const auto bytes = [](const std::vector<double> &v) {
        return v.capacity() * sizeof(double);
    };
    // Scratch: the per-step buffers PR 4's tick restructuring reuses.
    std::size_t scratch = bytes(stepScratch_.rackPower) +
                          bytes(stepScratch_.rackDraw) +
                          bytes(stepScratch_.rackUncapped) +
                          bytes(stepScratch_.rackShaved) +
                          bytes(stepScratch_.serverPower) +
                          boundsScratch_.capacity() * sizeof(Watts) +
                          socScratch_.capacity() * sizeof(Joules) +
                          limitsScratch_.capacity() * sizeof(Watts);
    // Arena: the persistent demand-cache slot/value tables.
    std::size_t arena = bytes(demand_.base) + bytes(demand_.values);
    prof_->setScratchBytes(scratch);
    prof_->setArenaBytes(arena);
}

void
DataCenter::telemetrySample(const StepPower &step)
{
    if (!telemetry_)
        return;
    auto &hub = *telemetry_;
    const Watts budget = config_.rackBudget();
    double score = 0.0;
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        const auto &rack = racks_[r];
        const std::string base = "rack" + std::to_string(r);
        hub.record(base + ".power", now_, step.rackPower[r]);
        hub.record(base + ".draw", now_, step.rackDraw[r]);
        hub.record(base + ".soc", now_, rack.soc());
        hub.record(base + ".udeb_soc", now_,
                   rack.udeb ? rack.udeb->soc() : 1.0);
        if (budget > 0.0)
            score = std::max(score, rack.vpEnergy / budget);
    }
    hub.record("pdu.power", now_, step.totalPower);
    hub.record("pdu.draw", now_, step.totalDraw);
    hub.record("policy.level", now_, static_cast<double>(level_));
    hub.record("shed.servers", now_,
               static_cast<double>(sheddedServers()));
    hub.record("detector.score", now_, score);
}

void
DataCenter::stepCoarse()
{
    // Components without their own clock (policy, µDEBs, breakers)
    // stamp events with the thread-local trace clock.
    obs::setTraceClock(now_);
    if (prof_)
        prof_->beginStep(/*fine=*/false);
    const double dtSec = ticksToSeconds(config_.coarseStep);
    StepPower &step = stepScratch_;
    computeStep(step, now_, dtSec, /*fine=*/false, nullptr, nullptr,
                nullptr, 0.0, false, nullptr);
    {
        const obs::PhaseScope ps(prof_,
                                 obs::EngineProfiler::Phase::KibamBatch);
        applyShaving(step, dtSec);
    }
    {
        const obs::PhaseScope ps(prof_,
                                 obs::EngineProfiler::Phase::Detector);
        detectorStep(step, config_.coarseStep);
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
    if (prof_) {
        profRefreshGauges();
        if (obs::traceEnabled())
            prof_->emitTraceCounters();
    }

    if (recordHistory_) {
        socHistory_.push_back(allSocs());
        shedHistory_.push_back(
            static_cast<double>(sheddedServers()) /
            static_cast<double>(config_.totalServers()));
    }
    now_ += config_.coarseStep;
}

void
DataCenter::runCoarseUntil(Tick until)
{
    while (now_ < until)
        stepCoarse();
}

AttackOutcome
DataCenter::runAttack(attack::TwoPhaseAttacker &attacker,
                      const AttackScenario &scenario)
{
    AttackScenario sc = scenario;
    switch (sc.targetPolicy) {
      case TargetPolicy::Fixed:
        break;
      case TargetPolicy::MostVulnerable:
        sc.targetRack = mostVulnerableRack();
        break;
      case TargetPolicy::Median:
        sc.targetRack = medianSocRack();
        break;
    }
    PAD_ASSERT(sc.targetRack >= 0 && sc.targetRack < config_.racks);
    sc.maliciousNodes = attacker.config().controlledNodes;
    PAD_ASSERT(sc.maliciousNodes >= 1 &&
               sc.maliciousNodes <= config_.serversPerRack,
               "attacker controls more nodes than one rack holds");

    AttackOutcome out;
    const Tick start = now_;
    const Tick horizon =
        start + secondsToTicks(sc.durationSec);
    out.rack.setAttackStart(start);
    out.cluster.setAttackStart(start);

    sched::PerfMonitor windowPerf;
    const auto target = static_cast<std::size_t>(sc.targetRack);
    // With capacity sharing the failure domain moves to the PDU,
    // which runs at its physical budget with little slack; without
    // sharing the cluster line keeps the administrative tolerance.
    const Watts clusterLimit =
        config_.clusterBudget() *
        (1.0 + (traits_.vdebSharing
                    ? config_.clusterOvershootTolerance
                    : config_.overshootTolerance));

    std::vector<bool> victimMask(racks_.size(), false);
    victimMask[target] = true;
    for (int r : sc.extraVictimRacks) {
        PAD_ASSERT(r >= 0 && r < config_.racks);
        victimMask[static_cast<std::size_t>(r)] = true;
    }

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

        StepPower &step = stepScratch_;
        computeStep(step, now_, dtSec, /*fine=*/true, &attacker, &sc,
                    &victimMask, relSec, active, &windowPerf);

        // Track the attacker's performance side channel on its own
        // nodes: demanded vs executed under the rack's DVFS factor.
        {
            auto &rack = racks_[target];
            for (int s = 0; s < sc.maliciousNodes; ++s) {
                double demand = serverDemand(sc.targetRack, s, now_, true);
                if (active)
                    demand = std::max(
                        demand, attacker.demandedUtil(s, relSec));
                const double exec =
                    isShed(sc.targetRack, s)
                        ? 0.0
                        : serverModel_.executed(demand, rack.dvfs);
                malDemandAccum += demand * dtSec;
                malExecAccum += exec * dtSec;
            }
        }

        {
            const obs::PhaseScope ps(
                prof_, obs::EngineProfiler::Phase::KibamBatch);
            applyShaving(step, dtSec);
        }
        std::vector<Watts> &limits = limitsScratch_;
        {
            const obs::PhaseScope ps(
                prof_, obs::EngineProfiler::Phase::UdebShave);
            fillRackLimits(step, limits);
            applyUdeb(step, limits, dtSec);
        }
        {
            const obs::PhaseScope ps(
                prof_, obs::EngineProfiler::Phase::Detector);
            detectorStep(step, config_.fineStep);
        }

        // Overload accounting and breaker thermodynamics. A tripped
        // rack goes dark for the recovery period, losing its work.
        bool anyTrip = false;
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            auto &rack = racks_[r];
            if (now_ < rack.downUntil)
                continue;
            if (rack.breaker->observe(step.rackDraw[r], dtSec)) {
                anyTrip = true;
                rack.downUntil =
                    now_ + secondsToTicks(config_.outageRecoverySec);
                rack.breaker->reset();
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
        // The attack succeeds at the worst victim rack: track the
        // highest draw/limit ratio across the racks under attack.
        double worst = 0.0;
        for (std::size_t r = 0; r < racks_.size(); ++r) {
            if (!victimMask[r])
                continue;
            worst = std::max(worst, step.rackDraw[r] / limits[r]);
        }
        out.rack.observe(now_, worst, 1.0, anyTrip);
        out.cluster.observe(now_, step.totalDraw, clusterLimit, false);

        // Instant markers at every overload onset, so forensics can
        // recompute survival time from the event stream alone and
        // match AttackStats tick-for-tick.
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
            out.rackPower.record(now_, step.rackPower[target]);
            out.rackDraw.record(now_, step.rackDraw[target]);
            out.rackSoc.record(now_, racks_[target].soc());
            out.udebSoc.record(now_, racks_[target].udeb
                                         ? racks_[target].udeb->soc()
                                         : 1.0);
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
            if (prof_) {
                profRefreshGauges();
                if (obs::traceEnabled())
                    prof_->emitTraceCounters();
            }
            // DEB depletion curves for the racks under attack, one
            // event per control period per victim.
            if (obs::traceEnabled()) {
                for (std::size_t r = 0; r < racks_.size(); ++r) {
                    if (!victimMask[r])
                        continue;
                    const auto &rack = racks_[r];
                    obs::emit(
                        "telemetry", "soc.sample",
                        {obs::TraceField::integer(
                             "rack", static_cast<std::int64_t>(r)),
                         obs::TraceField::num("soc", rack.soc()),
                         obs::TraceField::num(
                             "udeb_soc",
                             rack.udeb ? rack.udeb->soc() : 1.0),
                         obs::TraceField::num("power_w",
                                              step.rackPower[r]),
                         obs::TraceField::num("draw_w",
                                              step.rackDraw[r]),
                         obs::TraceField::integer(
                             "level",
                             static_cast<std::int64_t>(level_))});
                }
            }
        }

        now_ += config_.fineStep;
    }

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

double
DataCenter::rackSoc(int rack) const
{
    PAD_ASSERT(rack >= 0 && rack < config_.racks);
    return racks_[static_cast<std::size_t>(rack)].soc();
}

std::vector<double>
DataCenter::allSocs() const
{
    std::vector<double> socs;
    socs.reserve(racks_.size());
    for (const auto &rack : racks_)
        socs.push_back(rack.soc());
    return socs;
}

double
DataCenter::socStdDevPercent() const
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
DataCenter::medianSocRack() const
{
    std::vector<std::pair<Joules, int>> byEnergy;
    byEnergy.reserve(racks_.size());
    for (std::size_t r = 0; r < racks_.size(); ++r)
        byEnergy.emplace_back(racks_[r].stored(),
                              static_cast<int>(r));
    std::sort(byEnergy.begin(), byEnergy.end());
    return byEnergy[byEnergy.size() / 2].second;
}

int
DataCenter::mostVulnerableRack() const
{
    int best = 0;
    Joules lowest = racks_[0].stored();
    for (std::size_t r = 1; r < racks_.size(); ++r) {
        if (racks_[r].stored() < lowest) {
            lowest = racks_[r].stored();
            best = static_cast<int>(r);
        }
    }
    return best;
}

void
DataCenter::setAllSoc(double soc)
{
    for (auto &rack : racks_) {
        for (auto &unit : rack.debs)
            unit->setSoc(soc);
        if (rack.udeb)
            rack.udeb->setSoc(soc > 0.0 ? 1.0 : 0.0);
    }
}

void
DataCenter::seekTo(Tick t)
{
    PAD_ASSERT(t >= now_, "cannot seek backwards");
    now_ = t;
}

int
DataCenter::sheddedServers() const
{
    return static_cast<int>(
        std::count(shed_.begin(), shed_.end(), std::uint8_t{1}));
}

void
DataCenter::exportStats(sim::StatsRegistry &stats) const
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
    for (std::size_t r = 0; r < racks_.size(); ++r) {
        const auto &rack = racks_[r];
        socs.push_back(rack.soc());
        double rackWear = 0.0;
        for (const auto &u : rack.debs) {
            discharged += u->lifetimeDischarged();
            charged += u->lifetimeCharged();
            lvdTrips += u->lvdTrips();
            rackWear = std::max(rackWear, u->wear());
        }
        wear.push_back(rackWear);
        breakerTrips += rack.breaker->tripCount();
        if (rack.udeb)
            udebEngagements += rack.udeb->engagements();
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
DataCenter::dumpStats(std::ostream &os) const
{
    sim::StatsRegistry stats;
    exportStats(stats);
    stats.dump(os);
}

} // namespace pad::core
