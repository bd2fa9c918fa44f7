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

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "util/logging.h"
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
 * A few KibamCoeffs slots, replaced round-robin. A step that crosses
 * depletion needs the coefficients of its full dt, the crossing time
 * and the remainder; four slots keep the phase's fixed dt resident.
 */
struct KibamCoeffCache {
    std::array<KibamCoeffs, 4> slots;
    std::size_t next = 0;
};

// ---------------------------------------------------------------------
// KiBaM kernels over plain wells. The Kibam class and the cluster engine's
// per-unit arrays both call these; they are the only copy of the
// arithmetic.
// ---------------------------------------------------------------------

/** Numerical slack for well-boundary comparisons, in joules. */
inline constexpr Joules kKibamEps = 1e-9;

/** Coefficients for @p dt, computed on a miss of @p cache. */
inline const KibamCoeffs &
kibamCoeffs(const KibamParams &p, KibamCoeffCache &cache, double dt)
{
    for (const KibamCoeffs &c : cache.slots)
        if (c.dt == dt)
            return c;
    // Each stored value is the whole original expression — never a
    // refactored regrouping — so reusing it cannot change a bit
    // downstream.
    KibamCoeffs &c = cache.slots[cache.next];
    cache.next = (cache.next + 1) % cache.slots.size();
    const double r = std::exp(-p.k * dt);
    const double kt = p.k * dt;
    c.dt = dt;
    c.r = r;
    c.kt = kt;
    c.mspDenom = ((1.0 - r) + p.c * (kt - 1.0 + r)) / p.k;
    return c;
}

/** Wells at state of charge @p soc, both at equal head. */
inline void
kibamSetSoc(Joules &y1, Joules &y2, const KibamParams &p, double soc)
{
    y1 = soc * p.c * p.capacity;
    y2 = soc * (1.0 - p.c) * p.capacity;
}

/** State of charge: total stored charge / capacity, in [0,1]. */
inline double
kibamSoc(Joules y1, Joules y2, const KibamParams &p)
{
    return std::clamp((y1 + y2) / p.capacity, 0.0, 1.0);
}

/** True when the available well is (numerically) empty. */
inline bool
kibamDepleted(Joules y1)
{
    return y1 <= kKibamEps;
}

/**
 * Advance the wells at constant @p power over the dt that @p cc was
 * computed for, with no boundary handling.
 */
inline void
kibamAdvance(Joules &y1, Joules &y2, const KibamParams &p,
             const KibamCoeffs &cc, Watts power)
{
    // Manwell-McGowan closed form for constant power over dt.
    const double k = p.k;
    const double c = p.c;
    const double y0 = y1 + y2;
    const double r = cc.r;
    const double kt = cc.kt;
    const double y1n = y1 * r + (y0 * k * c - power) * (1.0 - r) / k -
                       power * c * (kt - 1.0 + r) / k;
    const double y2n = y2 * r + y0 * (1.0 - c) * (1.0 - r) -
                       power * (1.0 - c) * (kt - 1.0 + r) / k;
    y1 = y1n;
    y2 = y2n;
}

/**
 * Available-well charge after drawing @p power for @p t seconds,
 * without mutating the wells. The expression is the y1 line of
 * kibamAdvance() with exp() recomputed for @p t.
 */
inline double
kibamAvailableAfter(Joules y1, Joules y2, const KibamParams &p,
                    Watts power, double t)
{
    const double k = p.k;
    const double c = p.c;
    const double y0 = y1 + y2;
    const double r = std::exp(-k * t);
    const double kt = k * t;
    return y1 * r + (y0 * k * c - power) * (1.0 - r) / k -
           power * c * (kt - 1.0 + r) / k;
}

/**
 * Time at which drawing @p power empties the available well within
 * @p dt: 60 dyadic bisection steps on the sign of
 * kibamAvailableAfter() (kibam_property_test keeps the historical
 * whole-object probe loop as its reference).
 */
inline double
kibamCrossing(Joules y1, Joules y2, const KibamParams &p, Watts power,
              double dt)
{
    double lo = 0.0, hi = dt;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (kibamAvailableAfter(y1, y2, p, power, mid) > 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/** Clamp the wells into their physical ranges. */
inline void
kibamClampWells(Joules &y1, Joules &y2, const KibamParams &p)
{
    y1 = std::clamp(y1, 0.0, p.c * p.capacity);
    y2 = std::clamp(y2, 0.0, (1.0 - p.c) * p.capacity);
}

/**
 * Largest constant power the wells can sustain for the whole of the
 * next @p dt seconds without emptying the available well.
 */
inline Watts
kibamMaxSustainablePower(Joules y1, Joules y2, const KibamParams &p,
                         KibamCoeffCache &cache, double dt)
{
    PAD_ASSERT(dt > 0.0);
    // y1(dt) is affine in the power draw I; solve y1(dt) = 0 for I.
    const double y0 = y1 + y2;
    const KibamCoeffs &cc = kibamCoeffs(p, cache, dt);
    const double numer = y1 * cc.r + y0 * p.c * (1.0 - cc.r);
    if (cc.mspDenom <= 0.0)
        return 0.0;
    return std::max(0.0, numer / cc.mspDenom);
}

/**
 * Advance the wells by @p dt seconds under constant @p power
 * (positive = discharge, negative = charge). A discharge the
 * available well cannot sustain is delivered until the well empties,
 * then the wells rest for the remainder.
 *
 * @return the energy delivered (>= 0) or absorbed (<= 0), joules
 */
inline Joules
kibamStep(Joules &y1, Joules &y2, const KibamParams &p,
          KibamCoeffCache &cache, Watts power, double dt)
{
    PAD_ASSERT(dt >= 0.0);
    if (dt == 0.0 || power == 0.0) {
        // Even with no load the wells equalize.
        if (dt > 0.0) {
            kibamAdvance(y1, y2, p, kibamCoeffs(p, cache, dt), 0.0);
            kibamClampWells(y1, y2, p);
        }
        return 0.0;
    }

    if (power > 0.0) {
        const Watts sustainable =
            kibamMaxSustainablePower(y1, y2, p, cache, dt);
        if (power <= sustainable) {
            kibamAdvance(y1, y2, p, kibamCoeffs(p, cache, dt), power);
            kibamClampWells(y1, y2, p);
            return power * dt;
        }
        if (sustainable <= 0.0) {
            kibamAdvance(y1, y2, p, kibamCoeffs(p, cache, dt), 0.0);
            kibamClampWells(y1, y2, p);
            return 0.0;
        }
        // Deliver until y1 empties, then rest for the remainder.
        const double tcross = kibamCrossing(y1, y2, p, power, dt);
        kibamAdvance(y1, y2, p, kibamCoeffs(p, cache, tcross), power);
        kibamClampWells(y1, y2, p);
        y1 = 0.0;
        kibamAdvance(y1, y2, p, kibamCoeffs(p, cache, dt - tcross), 0.0);
        kibamClampWells(y1, y2, p);
        return power * tcross;
    }

    // Charging. Conservation comes first here: the kinetic closed
    // form can push a well past its physical bound and clamping would
    // silently lose charge, so accepted charge is split across the
    // wells (spilling overflow to the other well) and the kinetic
    // equalization is applied separately.
    const Joules room = p.capacity - (y1 + y2);
    const Joules accepted = std::min(-power * dt, room);
    if (accepted > 0.0) {
        const Joules y1room = p.c * p.capacity - y1;
        const Joules y2room = (1.0 - p.c) * p.capacity - y2;
        Joules toY1 = std::min(accepted * p.c, y1room);
        Joules toY2 = std::min(accepted - toY1, y2room);
        toY1 += std::min(accepted - toY1 - toY2, y1room - toY1);
        y1 += toY1;
        y2 += toY2;
    }
    kibamAdvance(y1, y2, p, kibamCoeffs(p, cache, dt), 0.0);
    kibamClampWells(y1, y2, p);
    return -accepted;
}

/**
 * Two-well kinetic battery state with an exact closed-form update
 * for piecewise-constant power.
 */
class Kibam
{
  public:
    /** Construct fully charged. */
    explicit Kibam(const KibamParams &params);

    /** kibamStep() on this battery's wells. */
    Joules step(Watts power, double dt)
    {
        return kibamStep(y1_, y2_, params_, coeffs_, power, dt);
    }

    /** kibamMaxSustainablePower() on this battery's wells. */
    Watts maxSustainablePower(double dt) const
    {
        return kibamMaxSustainablePower(y1_, y2_, params_, coeffs_, dt);
    }

    /** State of charge: total stored charge / capacity, in [0,1]. */
    double soc() const { return kibamSoc(y1_, y2_, params_); }

    /** Charge in the available well, joules. */
    Joules available() const { return y1_; }

    /** Charge in the bound well, joules. */
    Joules bound() const { return y2_; }

    /** Total stored charge, joules. */
    Joules stored() const { return y1_ + y2_; }

    /** True when the available well is (numerically) empty. */
    bool depleted() const { return kibamDepleted(y1_); }

    /** True when the battery is (numerically) full. */
    bool full() const { return stored() >= params_.capacity - kKibamEps; }

    /** Reset to fully charged. */
    void resetFull() { setSoc(1.0); }

    /** Set the state of charge directly (wells at equal head). */
    void setSoc(double soc);

    /** Static parameters. */
    const KibamParams &params() const { return params_; }

  private:
    // BatteryUnit runs the unit kernels (battery_unit.h) over these
    // wells and this coefficient memo.
    friend class BatteryUnit;

    KibamParams params_;
    Joules y1_; ///< available well charge
    Joules y2_; ///< bound well charge
    mutable KibamCoeffCache coeffs_; ///< per-dt closed-form memo
};

} // namespace pad::battery

#endif // PAD_BATTERY_KIBAM_H
