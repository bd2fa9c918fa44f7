#include "battery/aging_model.h"

#include <algorithm>

#include "util/logging.h"

namespace pad::battery {

AgingModel::AgingModel(const AgingModelConfig &config, Joules capacity)
    : config_(config), capacity_(capacity)
{
    PAD_ASSERT(capacity_ > 0.0);
    PAD_ASSERT(config_.cycleLife > 0.0);
    PAD_ASSERT(config_.referenceRateC > 0.0);
    PAD_ASSERT(config_.stressExponent >= 0.0);
    PAD_ASSERT(config_.calendarLifeHours > 0.0);
}

double
AgingModel::capacityFactor() const
{
    return std::max(0.8, 1.0 - 0.2 * std::min(wear(), 1.0));
}

} // namespace pad::battery
