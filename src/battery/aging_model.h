/**
 * @file
 * Lead-acid cycle-aging model.
 *
 * The vDEB controller caps per-unit discharge at P_ideal precisely
 * because "the discharge algorithm should not cause accelerated
 * aging on battery systems" (paper §IV-B.1, citing the 48 A limit of
 * a 2 Ah cell and BAAT [27]). This model quantifies that trade-off
 * so the ablation bench can sweep P_ideal against battery wear.
 *
 * Wear bookkeeping follows the standard throughput method: a cell
 * survives a rated energy throughput of cycleLife x capacity at the
 * reference discharge rate; discharging faster than the reference
 * multiplies the wear by a stress factor that grows with the rate
 * (rate-induced plate corrosion and active-material shedding).
 */

#ifndef PAD_BATTERY_AGING_MODEL_H
#define PAD_BATTERY_AGING_MODEL_H

#include <cmath>

#include "util/logging.h"
#include "util/types.h"

namespace pad::battery {

/** Aging parameters. */
struct AgingModelConfig {
    /** Full equivalent cycles at the reference rate before EOL. */
    double cycleLife = 500.0;
    /** Reference discharge rate in capacity fractions per hour (C). */
    double referenceRateC = 0.2;
    /**
     * Stress exponent: wear multiplier = (rate / reference)^exponent
     * for rates above the reference.
     */
    double stressExponent = 0.9;
    /** Calendar life, hours (float aging even when idle). */
    double calendarLifeHours = 5.0 * 365.0 * 24.0;
};

// ---------------------------------------------------------------------
// Aging kernels over plain wear counters. AgingModel, BatteryUnit and
// the cluster engine's per-unit arrays all call these.
// ---------------------------------------------------------------------

/**
 * Charge a discharge of @p power watts for @p dt seconds from a unit
 * of @p capacity joules against @p cycleWear.
 */
inline void
agingOnDischarge(double &cycleWear, const AgingModelConfig &config,
                 Joules capacity, Watts power, double dt)
{
    PAD_ASSERT(power >= 0.0 && dt >= 0.0);
    if (power == 0.0 || dt == 0.0)
        return;
    const Joules energy = power * dt;
    // Discharge rate in C (capacity fractions per hour).
    const double rateC = power * 3600.0 / capacity;
    double stress = 1.0;
    if (rateC > config.referenceRateC)
        stress = std::pow(rateC / config.referenceRateC,
                          config.stressExponent);
    const Joules lifetimeThroughput = config.cycleLife * capacity;
    cycleWear += stress * energy / lifetimeThroughput;
}

/** Charge @p dt seconds of idle/float time against @p calendarWear. */
inline void
agingOnElapsed(double &calendarWear, const AgingModelConfig &config,
               double dt)
{
    PAD_ASSERT(dt >= 0.0);
    calendarWear += dt / (config.calendarLifeHours * 3600.0);
}

/**
 * Accumulates normalized battery wear; 1.0 = end of life.
 */
class AgingModel
{
  public:
    /**
     * @param config   aging parameters
     * @param capacity rated capacity of the tracked unit, joules
     */
    AgingModel(const AgingModelConfig &config, Joules capacity);

    /**
     * Charge one discharge event against the wear budget.
     *
     * @param power delivered power, watts
     * @param dt    duration, seconds
     */
    void onDischarge(Watts power, double dt)
    {
        agingOnDischarge(cycleWear_, config_, capacity_, power, dt);
    }

    /** Charge idle/float time against calendar life. */
    void onElapsed(double dt)
    {
        agingOnElapsed(calendarWear_, config_, dt);
    }

    /** Normalized wear in [0, ...); >= 1 means end of life. */
    double wear() const { return cycleWear_ + calendarWear_; }

    /** Cycle-driven component of the wear. */
    double cycleWear() const { return cycleWear_; }

    /** Calendar component of the wear. */
    double calendarWear() const { return calendarWear_; }

    /** True once the unit has consumed its life budget. */
    bool endOfLife() const { return wear() >= 1.0; }

    /**
     * Capacity retention estimate: linear fade to 80% at EOL (the
     * usual lead-acid replacement criterion).
     */
    double capacityFactor() const;

    /** Static configuration. */
    const AgingModelConfig &config() const { return config_; }

  private:
    // BatteryUnit runs the aging kernels on these counters directly.
    friend class BatteryUnit;

    AgingModelConfig config_;
    Joules capacity_;
    double cycleWear_ = 0.0;
    double calendarWear_ = 0.0;
};

} // namespace pad::battery

#endif // PAD_BATTERY_AGING_MODEL_H
