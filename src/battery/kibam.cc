#include "battery/kibam.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace pad::battery {

namespace {

/** Numerical slack for well-boundary comparisons, in joules. */
constexpr Joules kEps = 1e-9;

} // namespace

Kibam::Kibam(const KibamParams &params) : params_(params)
{
    PAD_ASSERT(params_.capacity > 0.0);
    PAD_ASSERT(params_.c > 0.0 && params_.c < 1.0);
    PAD_ASSERT(params_.k > 0.0);
    resetFull();
}

void
Kibam::resetFull()
{
    y1_ = params_.c * params_.capacity;
    y2_ = (1.0 - params_.c) * params_.capacity;
}

void
Kibam::setSoc(double soc)
{
    PAD_ASSERT(soc >= 0.0 && soc <= 1.0);
    y1_ = soc * params_.c * params_.capacity;
    y2_ = soc * (1.0 - params_.c) * params_.capacity;
}

double
Kibam::soc() const
{
    return std::clamp(stored() / params_.capacity, 0.0, 1.0);
}

bool
Kibam::depleted() const
{
    return y1_ <= kEps;
}

bool
Kibam::full() const
{
    return stored() >= params_.capacity - kEps;
}

const KibamCoeffs &
Kibam::coeffsFor(double dt) const
{
    if (coeffs_.dt != dt) {
        // Each stored value is the whole original expression — never
        // a refactored regrouping — so reusing it cannot change a
        // single bit downstream.
        const double k = params_.k;
        const double c = params_.c;
        const double r = std::exp(-k * dt);
        const double kt = k * dt;
        coeffs_.dt = dt;
        coeffs_.r = r;
        coeffs_.kt = kt;
        coeffs_.mspDenom = ((1.0 - r) + c * (kt - 1.0 + r)) / k;
    }
    return coeffs_;
}

void
Kibam::advance(Watts power, double dt)
{
    // Manwell-McGowan closed form for constant power over dt.
    const double k = params_.k;
    const double c = params_.c;
    const double y0 = y1_ + y2_;
    const KibamCoeffs &cc = coeffsFor(dt);
    const double r = cc.r;
    const double kt = cc.kt;
    const double y1n = y1_ * r + (y0 * k * c - power) * (1.0 - r) / k -
                       power * c * (kt - 1.0 + r) / k;
    const double y2n = y2_ * r + y0 * (1.0 - c) * (1.0 - r) -
                       power * (1.0 - c) * (kt - 1.0 + r) / k;
    y1_ = y1n;
    y2_ = y2n;
}

double
Kibam::availableAfter(Watts power, double t) const
{
    const double k = params_.k;
    const double c = params_.c;
    const double y0 = y1_ + y2_;
    const double r = std::exp(-k * t);
    const double kt = k * t;
    return y1_ * r + (y0 * k * c - power) * (1.0 - r) / k -
           power * c * (kt - 1.0 + r) / k;
}

double
Kibam::crossingTimeBisect(Watts power, double dt) const
{
    // The same 60 dyadic midpoints, the same y1 arithmetic, the same
    // sign test as the historical whole-object probe loop (kept as the
    // reference in kibam_property_test) — only the Kibam copies and
    // the unused y2 update are gone, so the crossing is bit-identical.
    double lo = 0.0, hi = dt;
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (availableAfter(power, mid) > 0.0)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

void
Kibam::clampWells()
{
    y1_ = std::clamp(y1_, 0.0, params_.c * params_.capacity);
    y2_ = std::clamp(y2_, 0.0, (1.0 - params_.c) * params_.capacity);
}

Watts
Kibam::maxSustainablePower(double dt) const
{
    PAD_ASSERT(dt > 0.0);
    // y1(dt) is affine in the power draw I; solve y1(dt) = 0 for I.
    const double c = params_.c;
    const double y0 = y1_ + y2_;
    const KibamCoeffs &cc = coeffsFor(dt);
    const double r = cc.r;
    const double denom = cc.mspDenom;
    const double numer = y1_ * r + y0 * c * (1.0 - r);
    if (denom <= 0.0)
        return 0.0;
    return std::max(0.0, numer / denom);
}

Joules
Kibam::step(Watts power, double dt)
{
    PAD_ASSERT(dt >= 0.0);
    if (dt == 0.0 || power == 0.0) {
        // Even with no load the wells equalize.
        if (dt > 0.0) {
            advance(0.0, dt);
            clampWells();
        }
        return 0.0;
    }

    if (power > 0.0) {
        // Discharge; cap the draw at what the available well can
        // sustain over the full step, then deliver at that rate.
        const Watts sustainable = maxSustainablePower(dt);
        if (power <= sustainable) {
            advance(power, dt);
            clampWells();
            return power * dt;
        }
        if (sustainable <= 0.0) {
            advance(0.0, dt);
            clampWells();
            return 0.0;
        }
        // Deliver the requested power until y1 empties, then nothing.
        // Find the crossing time on the closed form.
        const double tcross = crossingTimeBisect(power, dt);
        advance(power, tcross);
        clampWells();
        y1_ = 0.0;
        // Remainder of the step: no delivery, wells equalize.
        advance(0.0, dt - tcross);
        clampWells();
        return power * tcross;
    }

    // Charging. Conservation comes first here: the kinetic closed
    // form can push a well past its physical bound and clamping would
    // silently lose charge, so accepted charge is split across the
    // wells (spilling overflow to the other well) and the kinetic
    // equalization is applied separately.
    const Joules room = params_.capacity - stored();
    const Joules accepted = std::min(-power * dt, room);
    if (accepted > 0.0) {
        const Joules y1room = params_.c * params_.capacity - y1_;
        const Joules y2room =
            (1.0 - params_.c) * params_.capacity - y2_;
        Joules toY1 = std::min(accepted * params_.c, y1room);
        Joules toY2 = std::min(accepted - toY1, y2room);
        toY1 += std::min(accepted - toY1 - toY2, y1room - toY1);
        y1_ += toY1;
        y2_ += toY2;
    }
    advance(0.0, dt);
    clampWells();
    return -accepted;
}

} // namespace pad::battery
