#include "trace/workload.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace pad::trace {

Workload::Workload(const std::vector<TaskEvent> &events, int machines,
                   Tick horizon, Tick slotTicks)
    : machines_(machines), slotTicks_(slotTicks)
{
    PAD_ASSERT(machines_ > 0);
    PAD_ASSERT(slotTicks_ > 0);
    PAD_ASSERT(horizon > 0);
    slots_ = static_cast<std::size_t>((horizon + slotTicks_ - 1) /
                                      slotTicks_);
    grid_.assign(static_cast<std::size_t>(machines_) * slots_, 0.0);

    std::size_t dropped = 0;
    for (const auto &ev : events) {
        if (ev.machine < 0 || ev.machine >= machines_) {
            ++dropped;
            continue;
        }
        const Tick start = std::max<Tick>(ev.start, 0);
        const Tick end = std::min<Tick>(ev.end, horizon);
        if (end <= start)
            continue;
        auto firstSlot = static_cast<std::size_t>(start / slotTicks_);
        auto lastSlot = static_cast<std::size_t>((end - 1) / slotTicks_);
        for (std::size_t s = firstSlot; s <= lastSlot && s < slots_; ++s) {
            const Tick slotStart = static_cast<Tick>(s) * slotTicks_;
            const Tick slotEnd = slotStart + slotTicks_;
            const Tick overlap =
                std::min(end, slotEnd) - std::max(start, slotStart);
            const double frac = static_cast<double>(overlap) /
                                static_cast<double>(slotTicks_);
            grid_[index(ev.machine, s)] += ev.cpuRate * frac;
        }
    }
    if (dropped > 0)
        warn("workload: dropped {} events with out-of-range machine ids",
             dropped);

    for (auto &u : grid_)
        u = std::min(u, 1.0);
}

std::size_t
Workload::index(int machine, std::size_t slot) const
{
    PAD_ASSERT(machine >= 0 && machine < machines_ && slot < slots_);
    return slot * static_cast<std::size_t>(machines_) +
           static_cast<std::size_t>(machine);
}

double
Workload::utilAtSlot(int machine, std::size_t slot) const
{
    return grid_[index(machine, slot)];
}

std::size_t
Workload::slotAt(Tick t) const
{
    return static_cast<std::size_t>(
        std::clamp<Tick>(t, 0, horizon() - 1) / slotTicks_);
}

const double *
Workload::slotColumn(std::size_t slot) const
{
    return grid_.data() + index(0, slot);
}

const double *
Workload::curveColumn(std::size_t slot, double exponent) const
{
    if (exponent != kTableCurveExponent)
        return nullptr;
    PAD_ASSERT(slot < slots_);
    std::call_once(curveAlloc_, [this] {
        curve_.reset(new double[grid_.size()]);
        curveFilled_ = std::make_unique<std::once_flag[]>(slots_);
    });
    double *column = curve_.get() + index(0, slot);
    std::call_once(curveFilled_[slot], [&] {
        const double *util = slotColumn(slot);
        for (int m = 0; m < machines_; ++m)
            column[m] = std::pow(std::clamp(util[m], 0.0, 1.0),
                                 kTableCurveExponent);
    });
    return column;
}

double
Workload::utilAt(int machine, Tick t) const
{
    return utilAtSlot(machine, slotAt(t));
}

double
Workload::jitterAt(int machine, std::uint64_t second)
{
    // One counter-based stream per machine (key = machine << 40),
    // indexed by wall-clock second; bit-identical to the historical
    // file-local splitmix64 hash of (machine << 40) ^ second.
    const CounterRng stream(static_cast<std::uint64_t>(machine) << 40);
    return stream.signedUnitAt(second);
}

double
Workload::utilFine(int machine, Tick t, double noiseAmp) const
{
    const double base = utilAt(machine, t);
    const auto second = static_cast<std::uint64_t>(t / kTicksPerSecond);
    return combineFine(base, jitterAt(machine, second), noiseAmp);
}

double
Workload::clusterUtilAt(Tick t) const
{
    double total = 0.0;
    for (int m = 0; m < machines_; ++m)
        total += utilAt(m, t);
    return total / static_cast<double>(machines_);
}

double
Workload::machineMeanUtil(int machine) const
{
    double total = 0.0;
    for (std::size_t s = 0; s < slots_; ++s)
        total += utilAtSlot(machine, s);
    return total / static_cast<double>(slots_);
}

double
Workload::overallMeanUtil() const
{
    // Machine by machine, the order the sum has always run in.
    double total = 0.0;
    for (int m = 0; m < machines_; ++m)
        for (std::size_t s = 0; s < slots_; ++s)
            total += utilAtSlot(m, s);
    return total / static_cast<double>(grid_.size());
}

} // namespace pad::trace
