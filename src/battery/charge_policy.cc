#include "battery/charge_policy.h"

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

} // namespace pad::battery
