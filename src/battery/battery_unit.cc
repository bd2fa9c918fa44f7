#include "battery/battery_unit.h"

#include <algorithm>

#include "util/logging.h"

namespace pad::battery {

void
checkUnitConfig(const BatteryUnitConfig &config)
{
    PAD_ASSERT(config.capacityWh > 0.0);
    PAD_ASSERT(config.maxDischargePower > 0.0);
    PAD_ASSERT(config.kibamC > 0.0 && config.kibamC < 1.0 &&
               config.kibamK > 0.0);
    PAD_ASSERT(config.lvdDisconnectSoc >= 0.0 &&
               config.lvdDisconnectSoc < config.lvdReconnectSoc &&
               config.lvdReconnectSoc <= 1.0);
    const AgingModelConfig &aging = config.aging;
    PAD_ASSERT(aging.cycleLife > 0.0 && aging.referenceRateC > 0.0 &&
               aging.stressExponent >= 0.0 &&
               aging.calendarLifeHours > 0.0);
}

BatteryUnit::BatteryUnit(std::string name, const BatteryUnitConfig &config)
    : name_(std::move(name)), config_(config),
      model_(KibamParams{wattHoursToJoules(config.capacityWh),
                         config.kibamC, config.kibamK}),
      aging_(config.aging, wattHoursToJoules(config.capacityWh)),
      voltage_(config.voltage)
{
    checkUnitConfig(config_);
}

Joules
BatteryUnit::discharge(Watts requested, double dt)
{
    return unitDischarge(state(), config_, model_.params_, model_.coeffs_,
                         requested, dt);
}

Joules
BatteryUnit::charge(Watts offered, double dt)
{
    return unitCharge(state(), config_, model_.params_, model_.coeffs_,
                      offered, dt);
}

void
BatteryUnit::rest(double dt)
{
    unitRest(state(), config_, model_.params_, model_.coeffs_, dt);
}

double
BatteryUnit::terminalVoltage(Watts load) const
{
    return voltage_.terminalVoltage(model_, load);
}

double
BatteryUnit::cellVoltage(Watts load) const
{
    return voltage_.cellVoltage(model_, load);
}

double
BatteryUnit::estimateAutonomySeconds(Watts load, double resolution) const
{
    PAD_ASSERT(load > 0.0 && resolution > 0.0);
    BatteryUnit probe = *this;
    double elapsed = 0.0;
    // Bound the search: even a trickle load empties within
    // capacity/load seconds plus slack for well equalization.
    const double bound =
        2.0 * probe.capacity() / std::min(load, config_.maxDischargePower) +
        10.0 * resolution;
    while (elapsed < bound) {
        const Joules got = probe.discharge(load, resolution);
        if (got < 0.5 * load * resolution || probe.unavailable())
            break;
        elapsed += resolution;
    }
    return elapsed;
}

double
BatteryUnit::equivalentFullCycles() const
{
    return totalDischarged_ / model_.params().capacity;
}

void
BatteryUnit::setSoc(double soc)
{
    model_.setSoc(soc);
    lvdTripped_ = 0;
    unitLvdUpdate(state(), config_, model_.params_);
}

} // namespace pad::battery
