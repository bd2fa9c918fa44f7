#include "core/config.h"

#include <cmath>
#include <sstream>

namespace pad::core {

battery::BatteryUnitConfig
defaultDebConfig(Watts rackNameplate, double seconds)
{
    battery::BatteryUnitConfig cfg;
    // "Sustains `seconds` under full load" is delivered autonomy: at
    // a full-rack draw the available well collapses to the LVD floor
    // when roughly 60% of rated charge has been delivered (KiBaM
    // rate-capacity effect), so the rated capacity is sized up.
    cfg.capacityWh = joulesToWattHours(rackNameplate * seconds / 0.6);
    // The cabinet must carry the full rack when shaving deep peaks,
    // but recharges slowly (trickle charging, ~C/5): the paper's
    // premise that aggressively used batteries "do not receive
    // timely recharge" depends on exactly this asymmetry.
    cfg.maxDischargePower = rackNameplate * 1.2;
    cfg.maxChargePower = rackNameplate * 0.05;
    return cfg;
}

battery::BatteryUnitConfig
DataCenterConfig::debUnit() const
{
    battery::BatteryUnitConfig unit = deb;
    if (debPlacement == DebPlacement::PerServer) {
        const double n = serversPerRack;
        unit.capacityWh /= n;
        unit.maxDischargePower /= n;
        unit.maxChargePower /= n;
    }
    return unit;
}

power::CircuitBreakerConfig
DataCenterConfig::rackBreakerFor(bool vdebSharing) const
{
    power::CircuitBreakerConfig bc = rackBreaker;
    bc.ratedPower = vdebSharing ? rackBudget() * rackBreakerMargin
                                : rackOverloadLimit();
    bc.holdRatio = 1.02;
    bc.thermalCapacity = 0.5;
    return bc;
}

std::string
checkRunInputs(double budgetFraction, std::optional<double> victimPct)
{
    std::ostringstream os;
    if (!std::isfinite(budgetFraction) || budgetFraction <= 0.0)
        os << "budget must be a finite positive fraction, got "
           << budgetFraction;
    else if (victimPct && !(*victimPct >= 0.0 && *victimPct <= 100.0))
        os << "victim percentile must be within [0, 100], got "
           << *victimPct;
    return os.str();
}

} // namespace pad::core
