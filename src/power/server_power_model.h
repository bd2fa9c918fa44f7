/**
 * @file
 * Utilization-to-power model for one server, following the
 * SPECpower_ssj2008 measurement style the paper relies on: the
 * evaluated HP ProLiant DL585 G5 (2.70 GHz AMD Opteron 8384) draws
 * 299 W at active idle and 521 W at 100% load (paper §V, ref [31]).
 *
 * The model also implements the DVFS-based power capping used by the
 * PSPC baseline: at a frequency factor f < 1 the server executes work
 * at most at rate f and its dynamic power ceiling scales with f.
 */

#ifndef PAD_POWER_SERVER_POWER_MODEL_H
#define PAD_POWER_SERVER_POWER_MODEL_H

#include <algorithm>
#include <cmath>

#include "util/types.h"

namespace pad::power {

/** Static description of a server's power behaviour. */
struct ServerPowerConfig {
    /** Active idle power, watts. */
    Watts idlePower = 299.0;
    /** Full-load (100% target load) power, watts. */
    Watts peakPower = 521.0;
    /**
     * Curve shape exponent: <1 gives the concave utilization/power
     * relation SPECpower reports for this class of machine.
     */
    double curveExponent = 0.85;
};

/**
 * Maps demanded utilization and a DVFS cap to electrical power and
 * executed throughput.
 */
class ServerPowerModel
{
  public:
    explicit ServerPowerModel(const ServerPowerConfig &config);

    /**
     * Power drawn when the workload demands utilization @p util and
     * the server runs at frequency factor @p dvfs (1.0 = uncapped).
     *
     * @param util demanded utilization in [0, 1]
     * @param dvfs frequency factor in (0, 1]
     */
    Watts power(double util, double dvfs = 1.0) const
    {
        return powerAt(curve(util), dvfs);
    }

    /**
     * Throughput actually executed: util x dvfs (a frequency cut is
     * a proportional slowdown). The PSPC performance accounting
     * charges util - executed as lost work.
     */
    double executed(double util, double dvfs = 1.0) const
    {
        return std::clamp(util, 0.0, 1.0) * std::clamp(dvfs, 0.0, 1.0);
    }

    /**
     * The curve's occupied fraction at demanded utilization @p util:
     * pow(clamp(util, 0, 1), curveExponent). The pow() is the one
     * costly step of the model; callers that already hold it (a
     * workload's curve table, a per-server cache) pass it to
     * powerAt() instead.
     */
    double curve(double util) const
    {
        return std::pow(std::clamp(util, 0.0, 1.0), config_.curveExponent);
    }

    /**
     * Power at curve fraction @p frac (= curve(util)) and frequency
     * factor @p dvfs: the dynamic power ceiling scales with
     * frequency, and within the ceiling the concave SPECpower-style
     * curve applies to the occupied fraction of the (scaled) ceiling.
     */
    Watts powerAt(double frac, double dvfs) const
    {
        const double span = config_.peakPower - config_.idlePower;
        return config_.idlePower + span * std::clamp(dvfs, 1e-6, 1.0) * frac;
    }

    /**
     * Hot-path bundle: power at @p dvfs, power at full frequency and
     * executed throughput, sharing one curve() — each bit-identical to
     * power(), power(util, 1.0) and executed().
     */
    void evaluate(double util, double dvfs, Watts &powerAtDvfs,
                  Watts &powerUncapped, double &executedUtil) const
    {
        const double frac = curve(util);
        powerAtDvfs = powerAt(frac, dvfs);
        powerUncapped = powerAt(frac, 1.0);
        executedUtil = executed(util, dvfs);
    }

    /**
     * Inverse mapping: the utilization that would produce @p watts at
     * full frequency (clamped to [0, 1]). Used by attackers to reason
     * about how much load is needed for a target power level.
     */
    double utilizationFor(Watts watts) const;

    /** Nameplate (peak) power. */
    Watts peak() const { return config_.peakPower; }

    /** Active idle power. */
    Watts idle() const { return config_.idlePower; }

    /** Static configuration. */
    const ServerPowerConfig &config() const { return config_; }

  private:
    ServerPowerConfig config_;
};

} // namespace pad::power

#endif // PAD_POWER_SERVER_POWER_MODEL_H
