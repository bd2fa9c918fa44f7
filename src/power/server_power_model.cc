#include "power/server_power_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pad::power {

ServerPowerModel::ServerPowerModel(const ServerPowerConfig &config)
    : config_(config)
{
    PAD_ASSERT(config_.peakPower > config_.idlePower);
    PAD_ASSERT(config_.idlePower >= 0.0);
    PAD_ASSERT(config_.curveExponent > 0.0);
}

double
ServerPowerModel::utilizationFor(Watts watts) const
{
    const double span = config_.peakPower - config_.idlePower;
    const double frac =
        std::clamp((watts - config_.idlePower) / span, 0.0, 1.0);
    return std::pow(frac, 1.0 / config_.curveExponent);
}

} // namespace pad::power
