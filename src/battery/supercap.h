/**
 * @file
 * Super-capacitor model for the µDEB spike-shaving device.
 *
 * The paper motivates super-capacitors for µDEB because shaving a
 * transient spike needs very little energy but very high power
 * output, and battery cells age under high current while caps do
 * not. We model a capacitor bank of C farads on a DC bus with a
 * usable voltage window [vMin, vMax]; stored usable energy is
 * E = C/2 (v^2 - vMin^2) and power is limited only by the bank's
 * current rating.
 */

#ifndef PAD_BATTERY_SUPERCAP_H
#define PAD_BATTERY_SUPERCAP_H

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"
#include "util/types.h"

namespace pad::core {
class MicroDeb;
} // namespace pad::core

namespace pad::battery {

/** Static configuration for a super-capacitor bank. */
struct SuperCapConfig {
    /** Bank capacitance in farads. */
    double capacitanceF = 2.0;
    /** Fully charged bus voltage, volts. */
    double vMax = 48.0;
    /** Minimum usable voltage (converter cutoff), volts. */
    double vMin = 24.0;
    /** Maximum output power, watts. */
    Watts maxPower = 50000.0;
    /** Round-trip efficiency applied on discharge. */
    double efficiency = 0.95;
};

// ---------------------------------------------------------------------
// Super-capacitor kernels over a plain bus voltage. SuperCapacitor,
// core::MicroDeb and the cluster engine's per-rack arrays all call these.
// ---------------------------------------------------------------------

/** Usable stored energy above the cutoff voltage, joules. */
inline Joules
capUsableEnergy(double voltage, const SuperCapConfig &config)
{
    const double v2 = voltage * voltage;
    const double vmin2 = config.vMin * config.vMin;
    return std::max(0.0, 0.5 * config.capacitanceF * (v2 - vmin2));
}

/** Total energy window (full to cutoff), joules. */
inline Joules
capUsableCapacity(const SuperCapConfig &config)
{
    const double vmax2 = config.vMax * config.vMax;
    const double vmin2 = config.vMin * config.vMin;
    return 0.5 * config.capacitanceF * (vmax2 - vmin2);
}

/** State of charge over the usable window, in [0, 1]. */
inline double
capSoc(double voltage, const SuperCapConfig &config)
{
    return std::clamp(
        capUsableEnergy(voltage, config) / capUsableCapacity(config), 0.0,
        1.0);
}

/** True when no usable energy remains. */
inline bool
capDepleted(double voltage, const SuperCapConfig &config)
{
    return capUsableEnergy(voltage, config) <= 1e-9;
}

/** Bus voltage at state of charge @p soc over the usable window. */
inline double
capVoltageAtSoc(const SuperCapConfig &config, double soc)
{
    const double vmin2 = config.vMin * config.vMin;
    const double vmax2 = config.vMax * config.vMax;
    return std::sqrt(vmin2 + soc * (vmax2 - vmin2));
}

/**
 * Draw up to @p requested watts for @p dt seconds from a bank at
 * @p voltage; counts the engagement and the energy delivered.
 * @return energy delivered, joules
 */
inline Joules
capDischarge(double &voltage, Joules &discharged, int &engagements,
             const SuperCapConfig &config, Watts requested, double dt)
{
    PAD_ASSERT(requested >= 0.0 && dt >= 0.0);
    if (requested == 0.0 || dt == 0.0 || capDepleted(voltage, config))
        return 0.0;
    const Watts bounded = std::min(requested, config.maxPower);
    // Energy removed from the bank exceeds energy delivered by the
    // conversion efficiency factor.
    const Joules wantFromBank = bounded * dt / config.efficiency;
    const Joules fromBank =
        std::min(wantFromBank, capUsableEnergy(voltage, config));
    const double v2 =
        voltage * voltage - 2.0 * fromBank / config.capacitanceF;
    voltage = std::sqrt(std::max(v2, config.vMin * config.vMin));
    const Joules delivered = fromBank * config.efficiency;
    discharged += delivered;
    ++engagements;
    return delivered;
}

/**
 * Push up to @p offered watts of charge for @p dt seconds into a bank
 * at @p voltage. @return energy absorbed, joules
 */
inline Joules
capCharge(double &voltage, const SuperCapConfig &config, Watts offered,
          double dt)
{
    PAD_ASSERT(offered >= 0.0 && dt >= 0.0);
    if (offered == 0.0 || dt == 0.0)
        return 0.0;
    const Joules room = 0.5 * config.capacitanceF *
                        (config.vMax * config.vMax - voltage * voltage);
    const Joules absorbed = std::min(offered * dt, room);
    const double v2 =
        voltage * voltage + 2.0 * absorbed / config.capacitanceF;
    voltage = std::min(std::sqrt(v2), config.vMax);
    return absorbed;
}

/**
 * Super-capacitor bank with instantaneous (ORing-style) response.
 */
class SuperCapacitor
{
  public:
    /**
     * @param name   telemetry name, e.g. "rack4.udeb"
     * @param config static configuration
     */
    SuperCapacitor(std::string name, const SuperCapConfig &config);

    /** capDischarge() on this bank. @return joules delivered */
    Joules discharge(Watts requested, double dt)
    {
        return capDischarge(voltage_, totalDischarged_, engagements_,
                            config_, requested, dt);
    }

    /** capCharge() on this bank. @return joules absorbed */
    Joules charge(Watts offered, double dt)
    {
        return capCharge(voltage_, config_, offered, dt);
    }

    /** Usable stored energy above the cutoff voltage, joules. */
    Joules usableEnergy() const { return capUsableEnergy(voltage_, config_); }

    /** Total energy window (full to cutoff), joules. */
    Joules usableCapacity() const { return capUsableCapacity(config_); }

    /** State of charge over the usable window, in [0, 1]. */
    double soc() const { return capSoc(voltage_, config_); }

    /** Present bus voltage, volts. */
    double voltage() const { return voltage_; }

    /** True when no usable energy remains. */
    bool depleted() const { return capDepleted(voltage_, config_); }

    /** Lifetime energy delivered, joules. */
    Joules lifetimeDischarged() const { return totalDischarged_; }

    /** Number of discharge engagements (spikes shaved). */
    int engagements() const { return engagements_; }

    /** Reset to fully charged. */
    void resetFull() { voltage_ = config_.vMax; }

    /** Set the state of charge over the usable window. */
    void setSoc(double soc);

    /** Telemetry name. */
    const std::string &name() const { return name_; }

    /** Static configuration. */
    const SuperCapConfig &config() const { return config_; }

  private:
    // MicroDeb runs the µDEB kernels (core/udeb.h) on this bank.
    friend class core::MicroDeb;

    std::string name_;
    SuperCapConfig config_;
    double voltage_;
    Joules totalDischarged_ = 0.0;
    int engagements_ = 0;
};

} // namespace pad::battery

#endif // PAD_BATTERY_SUPERCAP_H
