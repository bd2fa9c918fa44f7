#include "battery/charge_policy.h"

#include <algorithm>
#include <functional>

#include "util/index_sort.h"
#include "util/logging.h"

namespace pad::battery {

ChargePolicyKind
chargePolicyFromName(const std::string &name)
{
    if (name == "online")
        return ChargePolicyKind::Online;
    if (name == "offline")
        return ChargePolicyKind::Offline;
    PAD_FATAL("unknown charge policy: {}", name);
}

std::string
chargePolicyName(ChargePolicyKind kind)
{
    return kind == ChargePolicyKind::Online ? "online" : "offline";
}

ChargeController::ChargeController(const ChargeControllerConfig &config)
    : config_(config)
{
    PAD_ASSERT(config_.offlineStartSoc < config_.offlineStopSoc);
}

Joules
ChargeController::recharge(std::vector<BatteryUnit *> &units,
                           Watts headroom, double dt)
{
    PAD_ASSERT(dt >= 0.0);
    if (headroom <= 0.0 || dt == 0.0 || units.empty())
        return 0.0;

    // Collect candidates ordered lowest SOC first so that the most
    // vulnerable units recover first when headroom is scarce. This
    // runs per rack per step, so it reuses a sort scratch and sizes
    // the offline latch up front.
    if (recharging_.size() < units.size())
        recharging_.resize(units.size(), 0);
    std::vector<std::size_t> &order = orderScratch_;
    stableIndexSort(
        order, units.size(),
        [&](std::size_t i) { return units[i]->soc(); }, std::less<>());

    Joules absorbed = 0.0;
    Watts remaining = headroom;
    for (std::size_t idx : order) {
        if (remaining <= 0.0)
            break;
        BatteryUnit &unit = *units[idx];
        if (!chargeWanted(recharging_[idx], config_, unit.soc()))
            continue;
        const Watts offer =
            std::min(remaining, unit.config().maxChargePower);
        const Joules got = unit.charge(offer, dt);
        absorbed += got;
        remaining -= got / dt;
    }
    return absorbed;
}

} // namespace pad::battery
