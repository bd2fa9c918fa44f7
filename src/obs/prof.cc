#include "obs/prof.h"

#include <chrono>

#include "obs/tracer.h"
#include "util/logging.h"

namespace pad::obs {

namespace {

double
steadySeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

constexpr std::string_view kPhaseNames[EngineProfiler::kPhaseCount] = {
    "demand_eval",     "kibam_batch", "udeb_shave",
    "detector",        "telemetry_flush", "shard_merge",
};

} // namespace

std::string_view
EngineProfiler::phaseName(Phase p)
{
    return phaseName(static_cast<std::size_t>(p));
}

std::string_view
EngineProfiler::phaseName(std::size_t index)
{
    PAD_ASSERT(index < kPhaseCount, "phase index out of range");
    return kPhaseNames[index];
}

EngineProfiler::EngineProfiler(int samplePeriod)
    : clock_(&steadySeconds),
      samplePeriod_(samplePeriod < 1 ? 1 : samplePeriod)
{
}

void
EngineProfiler::setClock(ClockFn clock)
{
    clock_ = clock ? clock : &steadySeconds;
}

void
EngineProfiler::setSamplePeriod(int period)
{
    samplePeriod_ = period < 1 ? 1 : period;
}

double
EngineProfiler::totalPhaseSeconds() const
{
    double total = 0.0;
    for (const PhaseTotals &t : phases_)
        total += t.seconds;
    return total;
}

void
EngineProfiler::emitTraceCounters() const
{
    // One counter track per concern; Perfetto stacks the fields.
    emitCounter(
        "engine.prof", "engine.phase_ms",
        {TraceField::num(phaseName(0), phases_[0].seconds * 1e3),
         TraceField::num(phaseName(1), phases_[1].seconds * 1e3),
         TraceField::num(phaseName(2), phases_[2].seconds * 1e3),
         TraceField::num(phaseName(3), phases_[3].seconds * 1e3),
         TraceField::num(phaseName(4), phases_[4].seconds * 1e3),
         TraceField::num(phaseName(5), phases_[5].seconds * 1e3)});
    emitCounter(
        "engine.prof", "engine.cache",
        {TraceField::integer("hits",
                             static_cast<std::int64_t>(cacheHits())),
         TraceField::integer("misses",
                             static_cast<std::int64_t>(cacheMisses()))});
}

void
EngineProfiler::reset()
{
    sampling_ = false;
    fineTicks_ = 0;
    steps_ = 0;
    sampledSteps_ = 0;
    phases_.fill(PhaseTotals{});
    demandHits_ = 0;
    demandMisses_ = 0;
    malMemoHits_ = 0;
    malMemoMisses_ = 0;
    arenaBytes_ = 0;
    scratchBytes_ = 0;
}

} // namespace pad::obs
