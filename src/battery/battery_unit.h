/**
 * @file
 * A deployable distributed-energy-backup (DEB) unit: a KiBaM cell
 * stack plus the protection and telemetry electronics the paper's
 * threat model depends on — low-voltage disconnect (LVD), a maximum
 * safe discharge rate, and SOC reporting.
 *
 * Facebook's Open Rack battery cabinet (paper ref [2]) isolates the
 * battery through an independent LVD when terminal voltage drops to
 * 1.75 V/cell; we model that as an SOC threshold with reconnect
 * hysteresis. The maximum discharge rate mirrors the lead-acid
 * data-sheet bound the paper cites (48 A for a 2 Ah cell, ref [25]).
 */

#ifndef PAD_BATTERY_BATTERY_UNIT_H
#define PAD_BATTERY_BATTERY_UNIT_H

#include <algorithm>
#include <cstdint>
#include <string>

#include "battery/aging_model.h"
#include "battery/kibam.h"
#include "battery/voltage_model.h"
#include "util/logging.h"
#include "util/types.h"

namespace pad::battery {

/** Static configuration for a DEB unit. */
struct BatteryUnitConfig {
    /** Rated energy capacity. */
    WattHours capacityWh = 72.4;
    /** KiBaM available-well fraction. */
    double kibamC = 0.625;
    /** KiBaM rate constant, 1/s. */
    double kibamK = 4.5e-4;
    /** Maximum safe discharge power. */
    Watts maxDischargePower = 6000.0;
    /** Maximum charge power accepted. */
    Watts maxChargePower = 1500.0;
    /** LVD trips (battery disconnects) at/below this SOC. */
    double lvdDisconnectSoc = 0.125;
    /** LVD reconnects once SOC recovers to this level. */
    double lvdReconnectSoc = 0.25;
    /** Cycle/calendar aging parameters (telemetry). */
    AgingModelConfig aging;
    /** Terminal-voltage model parameters (telemetry). */
    VoltageModelConfig voltage;
};

/**
 * Assert that @p config describes a buildable unit: positive capacity
 * and discharge rate, KiBaM 0 < c < 1 and k > 0, ordered LVD
 * thresholds, and valid aging parameters.
 */
void checkUnitConfig(const BatteryUnitConfig &config);

/**
 * One DEB unit's mutable state, by reference: a BatteryUnit's members
 * or one slot of the cluster engine's per-unit arrays. The unit
 * kernels below are the only copy of the discharge, charge, LVD and
 * wear arithmetic; both call them.
 */
struct UnitState {
    Joules &y1;               ///< KiBaM available well
    Joules &y2;               ///< KiBaM bound well
    std::uint8_t &lvdTripped; ///< LVD has isolated the battery
    int &lvdTrips;            ///< LVD disconnect events
    double &cycleWear;
    double &calendarWear;
    Joules &discharged;       ///< lifetime energy delivered
    Joules &charged;          ///< lifetime energy absorbed
};

/**
 * Low-voltage disconnect. The LVD senses terminal voltage, which in
 * KiBaM terms tracks the *available-well head* (y1 relative to its
 * full level), not the total stored charge: a hard drain collapses
 * the voltage long before the bound well is empty, and the battery
 * must genuinely recover (recharge or long rest) before reconnecting.
 */
inline void
unitLvdUpdate(const UnitState &s, const BatteryUnitConfig &config,
              const KibamParams &p)
{
    const double head = s.y1 / (p.c * p.capacity);
    if (!s.lvdTripped) {
        if (head <= config.lvdDisconnectSoc + 1e-9 ||
            kibamDepleted(s.y1)) {
            s.lvdTripped = 1;
            ++s.lvdTrips;
        }
    } else if (head >= config.lvdReconnectSoc) {
        s.lvdTripped = 0;
    }
}

/** Idle for @p dt seconds: wells equalize, calendar wear accrues. */
inline void
unitRest(const UnitState &s, const BatteryUnitConfig &config,
         const KibamParams &p, KibamCoeffCache &cache, double dt)
{
    if (dt > 0.0) {
        kibamStep(s.y1, s.y2, p, cache, 0.0, dt);
        agingOnElapsed(s.calendarWear, config.aging, dt);
        unitLvdUpdate(s, config, p);
    }
}

/**
 * Draw up to @p requested watts for @p dt seconds, bounded by the
 * maximum discharge rate, the LVD state and the charge above the LVD
 * floor. @return energy delivered, joules
 */
inline Joules
unitDischarge(const UnitState &s, const BatteryUnitConfig &config,
              const KibamParams &p, KibamCoeffCache &cache,
              Watts requested, double dt)
{
    PAD_ASSERT(requested >= 0.0 && dt >= 0.0);
    if (dt == 0.0 || requested == 0.0 || s.lvdTripped) {
        unitRest(s, config, p, cache, dt);
        return 0.0;
    }
    const Watts bounded = std::min(requested, config.maxDischargePower);
    // Stop delivering once the LVD threshold is reached: compute the
    // charge above the disconnect floor and cap the step energy at it.
    const Joules floor = config.lvdDisconnectSoc * p.capacity;
    const Joules headroom = std::max(0.0, (s.y1 + s.y2) - floor);
    Joules delivered = 0.0;
    const Joules want = bounded * dt;
    if (want <= headroom) {
        delivered = kibamStep(s.y1, s.y2, p, cache, bounded, dt);
    } else {
        // Deliver until the LVD floor, then rest for the remainder.
        const double tcut = headroom / bounded;
        delivered = kibamStep(s.y1, s.y2, p, cache, bounded, tcut);
        kibamStep(s.y1, s.y2, p, cache, 0.0, dt - tcut);
    }
    s.discharged += delivered;
    agingOnDischarge(s.cycleWear, config.aging, p.capacity,
                     delivered / dt, dt);
    agingOnElapsed(s.calendarWear, config.aging, dt);
    unitLvdUpdate(s, config, p);
    return delivered;
}

/**
 * Push up to @p offered watts of charge for @p dt seconds, bounded by
 * the maximum charge rate. @return energy absorbed, joules
 */
inline Joules
unitCharge(const UnitState &s, const BatteryUnitConfig &config,
           const KibamParams &p, KibamCoeffCache &cache, Watts offered,
           double dt)
{
    PAD_ASSERT(offered >= 0.0 && dt >= 0.0);
    if (dt == 0.0 || offered == 0.0) {
        unitRest(s, config, p, cache, dt);
        return 0.0;
    }
    const Watts bounded = std::min(offered, config.maxChargePower);
    const Joules absorbed =
        -kibamStep(s.y1, s.y2, p, cache, -bounded, dt);
    s.charged += absorbed;
    agingOnElapsed(s.calendarWear, config.aging, dt);
    unitLvdUpdate(s, config, p);
    return absorbed;
}

/**
 * Largest power a unit with wells @p y1, @p y2 can deliver over the
 * next @p dt seconds: zero behind a tripped LVD, else the least of
 * the KiBaM sustainable power, the charge above the LVD floor and the
 * maximum discharge rate.
 */
inline Watts
unitAvailablePower(Joules y1, Joules y2, bool lvdTripped,
                   const BatteryUnitConfig &config, const KibamParams &p,
                   KibamCoeffCache &cache, double dt)
{
    if (lvdTripped)
        return 0.0;
    const Watts sustainable =
        kibamMaxSustainablePower(y1, y2, p, cache, dt);
    const Joules floor = config.lvdDisconnectSoc * p.capacity;
    const Joules headroom = std::max(0.0, (y1 + y2) - floor);
    const Watts byEnergy = headroom / dt;
    return std::min({sustainable, byEnergy, config.maxDischargePower});
}

/**
 * One rack- or server-level battery backup unit.
 */
class BatteryUnit
{
  public:
    /**
     * @param name   telemetry name, e.g. "rack7.deb"
     * @param config static configuration
     */
    BatteryUnit(std::string name, const BatteryUnitConfig &config);

    /** unitDischarge() on this unit. @return joules delivered */
    Joules discharge(Watts requested, double dt);

    /** unitCharge() on this unit. @return joules absorbed */
    Joules charge(Watts offered, double dt);

    /** unitRest() on this unit. */
    void rest(double dt);

    /** State of charge in [0, 1]. */
    double soc() const { return model_.soc(); }

    /** True when the LVD has isolated the battery from the load. */
    bool disconnected() const { return lvdTripped_ != 0; }

    /** True when no usable backup energy remains (empty or LVD). */
    bool unavailable() const { return lvdTripped_ || model_.depleted(); }

    /** unitAvailablePower() of this unit. */
    Watts availablePower(double dt) const
    {
        return unitAvailablePower(model_.y1_, model_.y2_, lvdTripped_,
                                  config_, model_.params_, model_.coeffs_,
                                  dt);
    }

    /**
     * Estimated autonomy: how long the unit could sustain @p load
     * before disconnecting, by forward-simulating a copy.
     */
    double estimateAutonomySeconds(Watts load, double resolution = 1.0) const;

    /** Total energy discharged over the unit's lifetime, joules. */
    Joules lifetimeDischarged() const { return totalDischarged_; }

    /** Total energy absorbed while charging, joules. */
    Joules lifetimeCharged() const { return totalCharged_; }

    /** Equivalent full cycles so far. */
    double equivalentFullCycles() const;

    /** Number of LVD disconnect events. */
    int lvdTrips() const { return lvdTrips_; }

    /** Normalized wear from cycling and calendar aging (1 = EOL). */
    double wear() const { return aging_.wear(); }

    /** Terminal pack voltage at the given load, volts. */
    double terminalVoltage(Watts load = 0.0) const;

    /** Per-cell terminal voltage at the given load, volts. */
    double cellVoltage(Watts load = 0.0) const;

    /** Rated capacity in joules. */
    Joules capacity() const { return model_.params().capacity; }

    /** Stored energy in joules. */
    Joules stored() const { return model_.stored(); }

    /** Force a state of charge (testing / scenario setup). */
    void setSoc(double soc);

    /** Telemetry name. */
    const std::string &name() const { return name_; }

    /** Static configuration. */
    const BatteryUnitConfig &config() const { return config_; }

  private:
    /** This unit's state for the unit kernels. */
    UnitState state()
    {
        return UnitState{model_.y1_,        model_.y2_,
                         lvdTripped_,       lvdTrips_,
                         aging_.cycleWear_, aging_.calendarWear_,
                         totalDischarged_,  totalCharged_};
    }

    std::string name_;
    BatteryUnitConfig config_;
    Kibam model_;
    AgingModel aging_;
    VoltageModel voltage_;
    std::uint8_t lvdTripped_ = 0;
    int lvdTrips_ = 0;
    Joules totalDischarged_ = 0.0;
    Joules totalCharged_ = 0.0;
};

} // namespace pad::battery

#endif // PAD_BATTERY_BATTERY_UNIT_H
