/**
 * @file
 * Randomized property tests for the KiBaM hot path, pinning the
 * physics invariants and the bit-identity contract between the
 * optimized code paths (coefficient cache, copy-free scalar crossing)
 * and the original formulas they replaced, kept here as a test-local
 * reference.
 */

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "battery/kibam.h"

using namespace pad;
using battery::Kibam;
using battery::KibamParams;

namespace {

constexpr double kCapacity = 260640.0;

KibamParams
params()
{
    return KibamParams{kCapacity, 0.625, 4.5e-4};
}

/** Deterministic (soc, power, dt) sample grid for the property runs. */
struct Sample {
    double soc;
    Watts power;
    double dt;
};

std::vector<Sample>
randomSamples(std::size_t n, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> soc(0.01, 1.0);
    std::uniform_real_distribution<double> logPower(0.0, 4.0);
    std::vector<double> dts{0.1, 0.1, 0.1, 1.0, 300.0};
    std::uniform_int_distribution<std::size_t> dtPick(0,
                                                      dts.size() - 1);
    std::vector<Sample> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(Sample{soc(rng),
                             std::pow(10.0, logPower(rng)),
                             dts[dtPick(rng)]});
    return out;
}

// ---------------------------------------------------------------------
// Physics invariants.
// ---------------------------------------------------------------------

TEST(KibamProperty, EnergyConservationAcrossStep)
{
    for (const Sample &s : randomSamples(500, 7)) {
        Kibam model(params());
        model.setSoc(s.soc);
        const Joules before = model.stored();
        const Joules delivered = model.step(s.power, s.dt);
        const Joules after = model.stored();
        // stored_before == stored_after + delivered, to within a
        // relative epsilon of the magnitudes involved.
        const double scale =
            std::max({std::abs(before), std::abs(after), 1.0});
        EXPECT_NEAR(before - after, delivered, 1e-9 * scale)
            << "soc=" << s.soc << " power=" << s.power
            << " dt=" << s.dt;
    }
}

TEST(KibamProperty, SocMonotoneNonIncreasingUnderDischarge)
{
    for (const Sample &s : randomSamples(200, 11)) {
        Kibam model(params());
        model.setSoc(s.soc);
        double prev = model.soc();
        for (int i = 0; i < 20; ++i) {
            model.step(s.power, s.dt);
            const double cur = model.soc();
            EXPECT_LE(cur, prev + 1e-12)
                << "soc=" << s.soc << " power=" << s.power
                << " dt=" << s.dt << " iter=" << i;
            prev = cur;
        }
    }
}

TEST(KibamProperty, MaxSustainablePowerIsSustainable)
{
    for (const Sample &s : randomSamples(300, 13)) {
        Kibam model(params());
        model.setSoc(s.soc);
        const Watts msp = model.maxSustainablePower(s.dt);
        ASSERT_GE(msp, 0.0);
        if (msp == 0.0)
            continue;
        // Drawing exactly the sustainable power must deliver the full
        // power * dt (no truncation) and leave the available well at
        // (numerically) zero: the step ends exactly at depletion.
        const Joules delivered = model.step(msp, s.dt);
        EXPECT_NEAR(delivered, msp * s.dt,
                    1e-6 * std::max(1.0, msp * s.dt));
        EXPECT_NEAR(model.available(), 0.0, 1e-6 * kCapacity);
    }
}

// ---------------------------------------------------------------------
// Bit-identity against the original formulas.
// ---------------------------------------------------------------------

/**
 * The historical KiBaM arithmetic the library's optimized paths must
 * reproduce bit for bit: exp(-k*dt) recomputed on every call (no
 * coefficient cache) and the depletion crossing found by bisection
 * over whole-object probe copies. Discharge only; the charging branch
 * never had a second implementation.
 */
struct ReferenceKibam {
    KibamParams p;
    double y1;
    double y2;

    ReferenceKibam(const KibamParams &params, double soc)
        : p(params), y1(soc * params.c * params.capacity),
          y2(soc * (1.0 - params.c) * params.capacity)
    {
    }

    Joules available() const { return y1; }
    Joules bound() const { return y2; }

    void
    advance(Watts power, double dt)
    {
        const double k = p.k;
        const double c = p.c;
        const double y0 = y1 + y2;
        const double r = std::exp(-k * dt);
        const double kt = k * dt;
        const double y1n = y1 * r + (y0 * k * c - power) * (1.0 - r) / k -
                           power * c * (kt - 1.0 + r) / k;
        const double y2n = y2 * r + y0 * (1.0 - c) * (1.0 - r) -
                           power * (1.0 - c) * (kt - 1.0 + r) / k;
        y1 = y1n;
        y2 = y2n;
    }

    void
    clampWells()
    {
        y1 = std::clamp(y1, 0.0, p.c * p.capacity);
        y2 = std::clamp(y2, 0.0, (1.0 - p.c) * p.capacity);
    }

    Watts
    maxSustainablePower(double dt) const
    {
        const double k = p.k;
        const double c = p.c;
        const double y0 = y1 + y2;
        const double r = std::exp(-k * dt);
        const double kt = k * dt;
        const double denom = ((1.0 - r) + c * (kt - 1.0 + r)) / k;
        const double numer = y1 * r + y0 * c * (1.0 - r);
        if (denom <= 0.0)
            return 0.0;
        return std::max(0.0, numer / denom);
    }

    Joules
    step(Watts power, double dt)
    {
        EXPECT_GE(power, 0.0) << "reference covers discharge only";
        if (dt == 0.0 || power == 0.0) {
            if (dt > 0.0) {
                advance(0.0, dt);
                clampWells();
            }
            return 0.0;
        }
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
        double lo = 0.0, hi = dt;
        ReferenceKibam probe = *this;
        for (int iter = 0; iter < 60; ++iter) {
            const double mid = 0.5 * (lo + hi);
            probe = *this;
            probe.advance(power, mid);
            if (probe.y1 > 0.0)
                lo = mid;
            else
                hi = mid;
        }
        const double tcross = 0.5 * (lo + hi);
        advance(power, tcross);
        clampWells();
        y1 = 0.0;
        advance(0.0, dt - tcross);
        clampWells();
        return power * tcross;
    }
};

/** Run one full trajectory and collect exact state+delivery values. */
template <typename Model>
std::vector<double>
trajectory(Model &model, const Sample &s)
{
    std::vector<double> out;
    for (int i = 0; i < 50; ++i) {
        out.push_back(model.step(s.power, s.dt));
        out.push_back(model.available());
        out.push_back(model.bound());
        out.push_back(model.maxSustainablePower(s.dt));
    }
    return out;
}

TEST(KibamBitIdentity, CachedCoefficientsMatchUncached)
{
    for (const Sample &s : randomSamples(300, 17)) {
        Kibam model(params());
        model.setSoc(s.soc);
        ReferenceKibam ref(params(), s.soc);
        const std::vector<double> tuned = trajectory(model, s);
        const std::vector<double> reference = trajectory(ref, s);
        ASSERT_EQ(tuned.size(), reference.size());
        for (std::size_t i = 0; i < tuned.size(); ++i)
            ASSERT_EQ(tuned[i], reference[i])
                << "index " << i << " soc=" << s.soc
                << " power=" << s.power << " dt=" << s.dt;
    }
}

TEST(KibamBitIdentity, ScalarCrossingMatchesProbeBisection)
{
    // Overdraw cases: force the boundary-crossing branch of step()
    // and compare the copy-free scalar bisection against the original
    // whole-object probe loop.
    std::mt19937_64 rng(23);
    std::uniform_real_distribution<double> soc(0.02, 0.4);
    std::uniform_real_distribution<double> overdraw(1.5, 50.0);
    for (int i = 0; i < 300; ++i) {
        const double s = soc(rng);
        Kibam probe(params());
        probe.setSoc(s);
        const double dt = 300.0;
        const Watts power =
            overdraw(rng) * std::max(1.0, probe.maxSustainablePower(dt));

        Kibam tunedModel(params());
        tunedModel.setSoc(s);
        ReferenceKibam refModel(params(), s);

        const double tunedDelivered = tunedModel.step(power, dt);
        const double refDelivered = refModel.step(power, dt);
        ASSERT_EQ(tunedDelivered, refDelivered)
            << "soc=" << s << " power=" << power;
        ASSERT_EQ(tunedModel.available(), refModel.available());
        ASSERT_EQ(tunedModel.bound(), refModel.bound());
    }
}

} // namespace
