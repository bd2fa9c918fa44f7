/**
 * @file
 * Kinetic Battery Model (KiBaM) after Manwell & McGowan, the model
 * the paper uses for its charge/discharge logs (ref [32]).
 *
 * The battery charge is split across two wells: an *available* well
 * (fraction c of capacity) that supplies the load directly, and a
 * *bound* well (fraction 1-c) that trickles charge into the available
 * well at rate constant k. Sustained high draw depletes the available
 * well faster than the bound well can refill it, reproducing the
 * rate-capacity effect and post-load recovery of real lead-acid
 * batteries.
 *
 * Charge is tracked in joules; "current" is electrical power in watts
 * (terminal voltage is folded into the units, standard practice in
 * datacenter battery studies).
 */

#ifndef PAD_BATTERY_KIBAM_H
#define PAD_BATTERY_KIBAM_H

#include "util/types.h"

namespace pad::battery {

/** Static KiBaM parameters. */
struct KibamParams {
    /** Total charge capacity in joules. */
    Joules capacity = 0.0;
    /** Fraction of capacity held in the available well (0 < c < 1). */
    double c = 0.625;
    /** Well equalization rate constant in 1/s. */
    double k = 4.5e-4;
};

/**
 * Memoized per-dt coefficients of the Manwell-McGowan closed form.
 *
 * The simulator advances batteries with a fixed dt per phase (5 min
 * coarse, 100 ms fine), so exp(-k*dt) and the derived sustainable-
 * power denominator are loop invariants. The cache stores exactly
 * the values the uncached formulas produce — the same exp() result
 * and the denominator as one unrefactored expression — so caching
 * changes no bit of any result (kibam_property_test keeps the
 * uncached arithmetic as its reference).
 */
struct KibamCoeffs {
    /** The dt the coefficients were computed for; <0 = invalid. */
    double dt = -1.0;
    /** exp(-k * dt). */
    double r = 1.0;
    /** k * dt. */
    double kt = 0.0;
    /** ((1 - r) + c * (kt - 1 + r)) / k, the affine-solve denominator. */
    double mspDenom = 0.0;
};

/**
 * Two-well kinetic battery state with an exact closed-form update
 * for piecewise-constant power.
 */
class Kibam
{
  public:
    /** Construct fully charged. */
    explicit Kibam(const KibamParams &params);

    /**
     * Advance the model by @p dt seconds under constant power draw
     * @p power (positive = discharge, negative = charge).
     *
     * The draw is truncated when the available well empties (or
     * fills, when charging) part-way through the step.
     *
     * @return the energy actually delivered (>= 0 when discharging)
     *         or absorbed (<= 0 when charging) in joules
     */
    Joules step(Watts power, double dt);

    /**
     * Largest constant power the battery can sustain for the whole of
     * the next @p dt seconds without emptying the available well.
     */
    Watts maxSustainablePower(double dt) const;

    /** State of charge: total stored charge / capacity, in [0,1]. */
    double soc() const;

    /** Charge in the available well, joules. */
    Joules available() const { return y1_; }

    /** Charge in the bound well, joules. */
    Joules bound() const { return y2_; }

    /** Total stored charge, joules. */
    Joules stored() const { return y1_ + y2_; }

    /** True when the available well is (numerically) empty. */
    bool depleted() const;

    /** True when the battery is (numerically) full. */
    bool full() const;

    /** Reset to fully charged. */
    void resetFull();

    /** Set the state of charge directly (wells at equal head). */
    void setSoc(double soc);

    /** Static parameters. */
    const KibamParams &params() const { return params_; }

  private:
    /** Advance wells by dt at constant power, no boundary handling. */
    void advance(Watts power, double dt);

    /** Clamp wells into their physical ranges. */
    void clampWells();

    /** Coefficients for @p dt, recomputed only when dt changes. */
    const KibamCoeffs &coeffsFor(double dt) const;

    /**
     * Available-well charge after drawing @p power for @p t seconds
     * from the current state, without mutating it. The expression is
     * verbatim the y1 line of advance(), so a decision taken on its
     * sign matches one taken through a whole-object probe bit for bit.
     */
    double availableAfter(Watts power, double t) const;

    /** Depletion crossing by 60-step dyadic bisection (copy-free). */
    double crossingTimeBisect(Watts power, double dt) const;

    KibamParams params_;
    Joules y1_; ///< available well charge
    Joules y2_; ///< bound well charge
    mutable KibamCoeffs coeffs_; ///< per-dt closed-form cache
};

} // namespace pad::battery

#endif // PAD_BATTERY_KIBAM_H
