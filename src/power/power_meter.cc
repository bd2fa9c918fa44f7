#include "power/power_meter.h"

#include "util/logging.h"

namespace pad::power {

PowerMeter::PowerMeter(std::string name, Tick interval)
    : name_(std::move(name)), interval_(interval)
{
    PAD_ASSERT(interval_ > 0);
}

Watts
PowerMeter::lastAverage() const
{
    return readings_.empty() ? 0.0 : readings_.back().average;
}

} // namespace pad::power
