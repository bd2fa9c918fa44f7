/**
 * @file
 * Recharge policies for DEB fleets (paper §II-B, Fig. 5).
 *
 * Offline charging recharges a unit only after its SOC drops below a
 * preset threshold, and then charges it to full; online charging
 * opportunistically tops up every unit whenever the upstream power
 * budget has headroom. The paper shows offline charging roughly
 * doubles the SOC variation across units, which is exactly the
 * vulnerability a power virus exploits.
 */

#ifndef PAD_BATTERY_CHARGE_POLICY_H
#define PAD_BATTERY_CHARGE_POLICY_H

#include <cstdint>
#include <string>

namespace pad::battery {

/** Available recharge disciplines. */
enum class ChargePolicyKind {
    /** Recharge only below a threshold, then to full. */
    Offline,
    /** Opportunistic recharge whenever headroom exists. */
    Online,
};

/** Parse a policy name ("online"/"offline"); fatal() on bad input. */
ChargePolicyKind chargePolicyFromName(const std::string &name);

/** Human-readable policy name. */
std::string chargePolicyName(ChargePolicyKind kind);

/** Recharge-policy configuration, read by chargeWanted(). */
struct ChargeControllerConfig {
    ChargePolicyKind kind = ChargePolicyKind::Online;
    /** Offline policy: begin recharging at/below this SOC. */
    double offlineStartSoc = 0.70;
    /** Offline policy: stop recharging at/above this SOC. */
    double offlineStopSoc = 0.995;
};

/**
 * Whether a unit at state of charge @p soc takes charge under
 * @p config. Online: any unit short of full. Offline: @p latch turns
 * on at/below the start threshold and off at/above the stop
 * threshold, so a unit charges all the way once it starts.
 */
inline bool
chargeWanted(std::uint8_t &latch, const ChargeControllerConfig &config,
             double soc)
{
    if (config.kind == ChargePolicyKind::Online)
        return soc < 0.999;
    if (latch) {
        if (soc >= config.offlineStopSoc)
            latch = 0;
    } else if (soc <= config.offlineStartSoc) {
        latch = 1;
    }
    return latch != 0;
}

} // namespace pad::battery

#endif // PAD_BATTERY_CHARGE_POLICY_H
