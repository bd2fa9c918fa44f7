/**
 * @file
 * Top-level configuration of the simulated data center, mirroring
 * the paper's evaluation setup (§V): 22 racks x 10 HP ProLiant
 * DL585 G5 servers, one Facebook-V1-style battery cabinet per rack
 * sized for 50 s at full rack load, KiBaM battery dynamics, and an
 * oversubscribed two-stage power distribution.
 */

#ifndef PAD_CORE_CONFIG_H
#define PAD_CORE_CONFIG_H

#include <cstdint>
#include <optional>
#include <string>

#include "battery/battery_unit.h"
#include "battery/charge_policy.h"
#include "core/schemes.h"
#include "core/udeb.h"
#include "core/vdeb.h"
#include "power/circuit_breaker.h"
#include "power/server_power_model.h"
#include "util/types.h"

namespace pad::core {

/** Full data-center configuration. */
struct DataCenterConfig {
    /** Number of racks (paper: 22). */
    int racks = 22;
    /** Servers per rack (paper: 10). */
    int serversPerRack = 10;

    /** Server power behaviour (paper: DL585 G5, 299/521 W). */
    power::ServerPowerConfig server;

    /**
     * Per-rack power budget (soft limit lambda_i) as a fraction of
     * rack nameplate. The paper sweeps 55-70% for attack studies;
     * sustained operation with this server's 57% idle/peak ratio
     * needs ~0.75+.
     */
    double budgetFraction = 0.75;

    /**
     * Cluster (PDU) budget as a fraction of total nameplate; <0
     * follows budgetFraction. Real iPDUs oversubscribe outlets, so
     * the sum of rack soft limits may exceed the PDU budget — this
     * knob sets how power-constrained the facility is overall.
     */
    double clusterBudgetFraction = -1.0;

    /**
     * Overload tolerance: an effective attack is a draw above
     * budget x (1 + overshootTolerance) (paper Fig. 8 sweeps 4-16%).
     */
    double overshootTolerance = 0.08;

    /**
     * Overload tolerance at the PDU when capacity sharing is active:
     * a shared PDU runs at its physical budget with the battery pool
     * absorbing the slack, so little headroom remains above it.
     */
    double clusterOvershootTolerance = 0.02;

    /** Where the DEB capacity physically lives (paper Fig. 3). */
    enum class DebPlacement {
        /** One battery cabinet per rack (option 3, Facebook V1). */
        RackCabinet,
        /** One small BBU inside every server (option 4, HP/Quanta). */
        PerServer,
    };

    /** DEB placement granularity. */
    DebPlacement debPlacement = DebPlacement::RackCabinet;

    /**
     * Per-rack DEB capacity (default ~50 s at full rack load). With
     * PerServer placement the same total capacity is split evenly
     * across the rack's servers, each with its own LVD.
     */
    battery::BatteryUnitConfig deb;

    /** Recharge policy for the DEB fleet. */
    battery::ChargeControllerConfig charge;

    /** Power-management scheme under evaluation. */
    SchemeKind scheme = SchemeKind::Pad;

    /**
     * Ablation hook: replace the scheme's behaviour switches with an
     * explicit combination (e.g. capping + sharing, which no Table
     * III scheme has).
     */
    bool overrideTraits = false;
    /** The traits used when overrideTraits is set. */
    SchemeTraits traits;

    /** vDEB controller parameters. */
    VdebConfig vdeb;

    /** µDEB parameters (used when the scheme has udebSpikes). */
    MicroDebConfig udeb;

    /** Rack breaker characteristics (ratedPower derived). */
    power::CircuitBreakerConfig rackBreaker;

    /**
     * Hard rack circuit rating as a multiple of the rack soft
     * budget; the breaker heats above it.
     */
    double rackBreakerMargin = 1.15;

    /** Coarse simulation step (trace granularity). */
    Tick coarseStep = 5 * kTicksPerMinute;

    /** Fine simulation step for attack windows. */
    Tick fineStep = 100; // 100 ms

    /** Control period for policy/vDEB decisions during attacks. */
    Tick controlPeriod = kTicksPerSecond;

    /**
     * Visible-peak detector: rack power averaged over this window
     * must exceed the rack budget to raise VP.
     */
    Tick vpWindow = 30 * kTicksPerSecond;

    /** Server deep-sleep power when shed, watts. */
    Watts sleepPower = 15.0;

    /**
     * Time a rack stays dark after its breaker trips before service
     * is restored, seconds (detection + restart).
     */
    double outageRecoverySec = 300.0;

    /**
     * Shedding trigger: shed when the cluster-level deficit exceeds
     * this fraction of the cluster budget while backup is exhausted.
     */
    double shedTriggerFraction = 0.02;

    /**
     * Detection-triggered response (paper §III-B): when enabled,
     * interval-averaged per-rack metering flags anomalies and the
     * data center reacts with *cluster-wide* DVFS capping for a hold
     * period — effective against what it can see, but "may well be
     * overkill and could significantly affect other legitimate
     * service requests".
     */
    bool detectorResponse = false;
    /** Metering interval of the detector (Table I's sweep axis). */
    Tick detectorInterval = 10 * kTicksPerSecond;
    /** Relative margin over the rack's rolling average to flag. */
    double detectorMargin = 0.05;
    /** How long a detection keeps the cluster capped, seconds. */
    double detectorCapHoldSec = 120.0;

    /** Deterministic seed for workload jitter etc. */
    std::uint64_t seed = 1234;

    /** Derived: rack nameplate power. */
    Watts
    rackNameplate() const
    {
        return server.peakPower * serversPerRack;
    }

    /** Derived: per-rack soft budget. */
    Watts
    rackBudget() const
    {
        return budgetFraction * rackNameplate();
    }

    /** Derived: cluster (PDU) budget. */
    Watts
    clusterBudget() const
    {
        const double frac = clusterBudgetFraction > 0.0
                                ? clusterBudgetFraction
                                : budgetFraction;
        return frac * rackNameplate() * racks;
    }

    /** Derived: effective-attack limit at rack level. */
    Watts
    rackOverloadLimit() const
    {
        return rackBudget() * (1.0 + overshootTolerance);
    }

    /** Derived: effective-attack limit at cluster level. */
    Watts
    clusterOverloadLimit() const
    {
        return clusterBudget() * (1.0 + overshootTolerance);
    }

    /** Total number of servers. */
    int
    totalServers() const
    {
        return racks * serversPerRack;
    }

    /**
     * One battery unit as placed: the cabinet itself, or a cabinet
     * split into per-server BBUs (same total capacity, per-unit rate
     * limits scaled down).
     */
    battery::BatteryUnitConfig debUnit() const;

    /**
     * The rack breaker as deployed. Without sharing, the enforcement
     * point is the rack's soft overload limit: sustained violation
     * trips the circuit. With iPDU sharing, draws up to the wire's
     * hard rating are legitimate, so only that rating is
     * breaker-protected.
     */
    power::CircuitBreakerConfig rackBreakerFor(bool vdebSharing) const;
};

/**
 * Default DEB sizing helper: capacity for @p seconds at full rack
 * load of @p rackNameplate watts (paper: 50 s, Facebook V1).
 */
battery::BatteryUnitConfig defaultDebConfig(Watts rackNameplate,
                                            double seconds = 50.0);

/**
 * Boundary check for user-supplied run settings: the rack budget
 * fraction must be finite and positive and, when given, the victim
 * load percentile within [0, 100]. padsim, padd and the session
 * parser all call it.
 * @return a message naming the first unusable value, or an empty
 *         string when the values are usable
 */
std::string checkRunInputs(double budgetFraction,
                           std::optional<double> victimPct = {});

} // namespace pad::core

#endif // PAD_CORE_CONFIG_H
