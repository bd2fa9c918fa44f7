/**
 * @file
 * Micro distributed energy backup (µDEB), paper §IV-B.2.
 *
 * A small super-capacitor bank sits in each rack power zone behind
 * an ORing FET on the primary power bus. Because the ORing conducts
 * automatically the instant rack demand exceeds the utility-side
 * allocation, the µDEB shaves *hidden* spikes with no software in
 * the loop — the property that defeats Phase-II attacks which
 * utilization-based monitoring cannot see. It deliberately does NOT
 * serve sustained peaks (efficiency and thermal limits, §IV-B.2);
 * an engagement-duration guard enforces that.
 */

#ifndef PAD_CORE_UDEB_H
#define PAD_CORE_UDEB_H

#include <algorithm>
#include <string>

#include "battery/supercap.h"
#include "obs/tracer.h"
#include "util/logging.h"
#include "util/types.h"

namespace pad::core {

/** µDEB configuration. */
struct MicroDebConfig {
    /** Super-capacitor bank behind the ORing FET. */
    battery::SuperCapConfig cap;
    /**
     * Longest continuous engagement the µDEB will serve, seconds.
     * Sustained peaks beyond it are a vDEB/capping problem, not a
     * spike; the ORing disengages to avoid thermal issues.
     */
    double maxEngagementSec = 8.0;
    /** Recharge power drawn from headroom when idle, watts. */
    Watts rechargePower = 300.0;
};

/**
 * One µDEB's mutable state, by reference: a MicroDeb's members or one
 * slot of the cluster engine's per-rack arrays.
 */
struct UdebState {
    double &voltage;      ///< super-capacitor bus voltage
    Joules &discharged;   ///< lifetime energy delivered
    int &engagements;     ///< spikes served
    double &engagedFor;   ///< current engagement, seconds
};

/**
 * Automatic ORing response: shave up to @p excess watts for @p dt
 * seconds, within the engagement-duration guard. @p name labels the
 * trace event. @return power shaved (averaged over the step), watts
 */
inline Watts
udebShave(const UdebState &s, const MicroDebConfig &config,
          const std::string &name, Watts excess, double dt)
{
    PAD_ASSERT(excess >= 0.0 && dt >= 0.0);
    if (excess <= 0.0 || dt == 0.0) {
        s.engagedFor = 0.0;
        return 0.0;
    }
    // Engagement-duration guard: the ORing backs off when the
    // "spike" turns out to be a sustained peak.
    if (s.engagedFor >= config.maxEngagementSec)
        return 0.0;
    const double window =
        std::min(dt, config.maxEngagementSec - s.engagedFor);
    const Joules delivered =
        battery::capDischarge(s.voltage, s.discharged, s.engagements,
                              config.cap, excess, window);
    s.engagedFor += dt;
    const Watts shaved = delivered / dt;
    if (shaved > 0.0 && obs::traceEnabled())
        obs::emit(name, "udeb.shave",
                  {obs::TraceField::num("excess_w", excess),
                   obs::TraceField::num("shaved_w", shaved),
                   obs::TraceField::num(
                       "soc", battery::capSoc(s.voltage, config.cap)),
                   obs::TraceField::num("engaged_sec", s.engagedFor)});
    return shaved;
}

/**
 * Idle step with @p headroom watts available for recharge; ends any
 * engagement. @return power consumed for recharging, watts
 */
inline Watts
udebRecharge(double &voltage, double &engagedFor,
             const MicroDebConfig &config, Watts headroom, double dt)
{
    PAD_ASSERT(dt >= 0.0);
    engagedFor = 0.0;
    if (headroom <= 0.0 || dt == 0.0)
        return 0.0;
    const Watts offer = std::min(headroom, config.rechargePower);
    return battery::capCharge(voltage, config.cap, offer, dt) / dt;
}

/**
 * Rack-level automatic spike shaver.
 */
class MicroDeb
{
  public:
    /**
     * @param name   telemetry name, e.g. "rack5.udeb"
     * @param config static configuration
     */
    MicroDeb(std::string name, const MicroDebConfig &config);

    /**
     * udebShave() on this µDEB: @p excess is the rack demand above
     * the utility-side allocation. @return watts shaved
     */
    Watts shave(Watts excess, double dt)
    {
        return udebShave(UdebState{cap_.voltage_, cap_.totalDischarged_,
                                   cap_.engagements_, engagedFor_},
                         config_, name_, excess, dt);
    }

    /** udebRecharge() on this µDEB. @return watts consumed */
    Watts recharge(Watts headroom, double dt)
    {
        return udebRecharge(cap_.voltage_, engagedFor_, config_, headroom,
                            dt);
    }

    /** Usable energy remaining, joules. */
    Joules usableEnergy() const { return cap_.usableEnergy(); }

    /** State of charge over the usable window. */
    double soc() const { return cap_.soc(); }

    /** True when no usable energy remains. */
    bool depleted() const { return cap_.depleted(); }

    /** Spikes served so far. */
    int engagements() const { return cap_.engagements(); }

    /** Force a state of charge (testing / scenario setup). */
    void setSoc(double soc);

    /** Static configuration. */
    const MicroDebConfig &config() const { return config_; }

  private:
    std::string name_;
    MicroDebConfig config_;
    battery::SuperCapacitor cap_;
    double engagedFor_ = 0.0;
};

} // namespace pad::core

#endif // PAD_CORE_UDEB_H
