#include "core/vdeb.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "obs/tracer.h"
#include "util/index_sort.h"
#include "util/logging.h"

namespace pad::core {

VdebController::VdebController(const VdebConfig &config) : config_(config)
{
    PAD_ASSERT(config_.idealDischargePower > 0.0);
}

VdebAssignment
VdebController::assign(const std::vector<Joules> &socJoules,
                       Watts totalPower, Watts maxPower) const
{
    VdebAssignment out;
    assignInto(socJoules, totalPower, maxPower, out);
    return out;
}

void
VdebController::assignInto(const std::vector<Joules> &socJoules,
                           Watts totalPower, Watts maxPower,
                           VdebAssignment &out) const
{
    const std::size_t n = socJoules.size();
    PAD_ASSERT(n > 0);

    out.power.assign(n, 0.0);
    out.even = false;
    out.shaveTarget = std::max(0.0, totalPower - maxPower);
    if (out.shaveTarget <= 0.0)
        return;

    const Watts pIdeal = config_.idealDischargePower;
    const Watts shave = out.shaveTarget;

    // Fallback branch: the deficit exceeds what capped assignment
    // could ever deliver, so split evenly (accepting aging risk to
    // avoid an immediate overload).
    if (shave >= pIdeal * static_cast<double>(n)) {
        std::fill(out.power.begin(), out.power.end(),
                  shave / static_cast<double>(n));
        out.even = true;
        if (obs::traceEnabled())
            obs::emit("vdeb", "vdeb.assign",
                      {obs::TraceField::num("shave_w", out.shaveTarget),
                       obs::TraceField::boolean("even", true),
                       obs::TraceField::num(
                           "max_rate_w",
                           shave / static_cast<double>(n))});
        return;
    }

    // Sort rack indices by SOC, descending (Algorithm 1 line 9-10).
    // This runs every step under vDEB sharing, so it reuses a scratch.
    std::vector<std::size_t> &order = orderScratch_;
    stableIndexSort(
        order, n, [&](std::size_t r) { return socJoules[r]; },
        std::greater<>());

    double socRemaining =
        std::accumulate(socJoules.begin(), socJoules.end(), 0.0);
    Watts shaveRemaining = shave;

    // Pin the highest-SOC racks at P_ideal while their proportional
    // share of the remaining deficit exceeds the cap.
    std::size_t i = 0;
    for (; i < n; ++i) {
        const std::size_t rack = order[i];
        if (socRemaining <= 0.0)
            break;
        const Watts share =
            socJoules[rack] / socRemaining * shaveRemaining;
        if (share <= pIdeal)
            break;
        out.power[rack] = pIdeal;
        socRemaining -= socJoules[rack];
        shaveRemaining -= pIdeal;
        if (shaveRemaining <= 0.0)
            break;
    }

    // Split the remainder SOC-proportionally across the rest
    // (Algorithm 1 lines 16-18). Units with zero SOC get nothing.
    if (shaveRemaining > 0.0 && socRemaining > 0.0) {
        for (std::size_t j = i; j < n; ++j) {
            const std::size_t rack = order[j];
            out.power[rack] =
                socJoules[rack] / socRemaining * shaveRemaining;
        }
    }
    if (obs::traceEnabled())
        obs::emit("vdeb", "vdeb.assign",
                  {obs::TraceField::num("shave_w", out.shaveTarget),
                   obs::TraceField::boolean("even", false),
                   obs::TraceField::num(
                       "max_rate_w",
                       *std::max_element(out.power.begin(),
                                         out.power.end()))});
}

} // namespace pad::core
