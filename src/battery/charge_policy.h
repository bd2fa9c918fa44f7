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
#include <vector>

#include "battery/battery_unit.h"
#include "util/types.h"

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

/** Configuration for the charge controller. */
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

/**
 * Distributes available charging headroom across a fleet of battery
 * units according to the configured policy.
 */
class ChargeController
{
  public:
    explicit ChargeController(const ChargeControllerConfig &config);

    /**
     * Spend up to @p headroom watts for @p dt seconds recharging
     * @p units.
     *
     * Online policy: headroom is split across all non-full units,
     * lowest SOC first. Offline policy: only units in their recharge
     * window (below start threshold, or still on the way to the stop
     * threshold) receive charge.
     *
     * @return total energy absorbed across the fleet, joules
     */
    Joules recharge(std::vector<BatteryUnit *> &units, Watts headroom,
                    double dt);

    /** Static configuration. */
    const ChargeControllerConfig &config() const { return config_; }

  private:
    ChargeControllerConfig config_;
    /** Offline policy latch: unit index -> currently recharging. */
    std::vector<std::uint8_t> recharging_;
    /** Hot-path sort scratch, reused across calls. */
    std::vector<std::size_t> orderScratch_;
};

} // namespace pad::battery

#endif // PAD_BATTERY_CHARGE_POLICY_H
