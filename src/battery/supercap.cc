#include "battery/supercap.h"

#include "util/logging.h"

namespace pad::battery {

SuperCapacitor::SuperCapacitor(std::string name,
                               const SuperCapConfig &config)
    : name_(std::move(name)), config_(config), voltage_(config.vMax)
{
    PAD_ASSERT(config_.capacitanceF > 0.0);
    PAD_ASSERT(config_.vMax > config_.vMin && config_.vMin >= 0.0);
    PAD_ASSERT(config_.maxPower > 0.0);
    PAD_ASSERT(config_.efficiency > 0.0 && config_.efficiency <= 1.0);
}

void
SuperCapacitor::setSoc(double soc)
{
    PAD_ASSERT(soc >= 0.0 && soc <= 1.0);
    voltage_ = capVoltageAtSoc(config_, soc);
}

} // namespace pad::battery
