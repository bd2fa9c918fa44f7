/**
 * @file
 * Interval-averaging power meter (paper §III-B, Table I).
 *
 * Real data centers monitor "total energy consumption at
 * coarse-grained intervals (e.g., 10 minutes) to estimate the
 * average power demand", which is exactly why narrow spikes are
 * invisible to them. The meter integrates energy continuously and
 * publishes one averaged reading per metering interval.
 */

#ifndef PAD_POWER_POWER_METER_H
#define PAD_POWER_POWER_METER_H

#include <algorithm>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/types.h"

namespace pad::power {

/** One published meter reading. */
struct MeterReading {
    /** Tick at the end of the metering interval. */
    Tick when = 0;
    /** Average power over the interval, watts. */
    Watts average = 0.0;
};

/**
 * Interval-meter kernel over plain state: integrate a constant draw
 * of @p power for @p dt ticks from the meter clock @p now, in the
 * interval that began at @p intervalStart with @p energy watt-ticks
 * so far. Each interval boundary crossed publishes its average via
 * @p onReading(MeterReading). PowerMeter and the cluster engine's
 * per-rack detector meters both call it.
 */
template <typename OnReading>
inline void
meterObserve(Tick &now, Tick &intervalStart, double &energy, Tick interval,
             Watts power, Tick dt, OnReading &&onReading)
{
    PAD_ASSERT(dt >= 0);
    while (dt > 0) {
        const Tick intervalEnd = intervalStart + interval;
        const Tick step = std::min(dt, intervalEnd - now);
        energy += power * static_cast<double>(step);
        now += step;
        dt -= step;
        if (now == intervalEnd) {
            const Watts avg = energy / static_cast<double>(interval);
            intervalStart += interval;
            energy = 0.0;
            onReading(MeterReading{intervalEnd, avg});
        }
    }
}

/**
 * Integrating meter with a fixed reporting interval.
 */
class PowerMeter
{
  public:
    /**
     * @param name     telemetry name
     * @param interval metering interval in ticks (e.g. 5 s ... 15 min)
     */
    PowerMeter(std::string name, Tick interval);

    /** meterObserve() on this meter, keeping every reading. */
    void observe(Watts power, Tick dt)
    {
        meterObserve(now_, intervalStart_, energyInInterval_, interval_,
                     power, dt, [this](const MeterReading &reading) {
                         readings_.push_back(reading);
                     });
    }

    /** All published readings so far. */
    const std::vector<MeterReading> &readings() const { return readings_; }

    /** Last published average (0 before the first interval ends). */
    Watts lastAverage() const;

    /** Metering interval in ticks. */
    Tick interval() const { return interval_; }

    /** Current position of the meter clock, ticks. */
    Tick now() const { return now_; }

    /** Telemetry name. */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    Tick interval_;
    Tick now_ = 0;
    Tick intervalStart_ = 0;
    double energyInInterval_ = 0.0; ///< watt-ticks
    std::vector<MeterReading> readings_;
};

} // namespace pad::power

#endif // PAD_POWER_POWER_METER_H
