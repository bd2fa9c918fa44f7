#include "engine/prof_stats.h"

#include <string>
#include <vector>

namespace pad::engine {

void
exportProfilerStats(const obs::EngineProfiler &prof,
                    sim::StatsRegistry &stats)
{
    using obs::EngineProfiler;

    std::vector<double> phaseSeconds;
    phaseSeconds.reserve(EngineProfiler::kPhaseCount);
    for (std::size_t i = 0; i < EngineProfiler::kPhaseCount; ++i) {
        const auto &t = prof.phases()[i];
        const std::string base =
            "engine.phase." + std::string(EngineProfiler::phaseName(i));
        stats.registerScalar(base + ".seconds",
                             "sampled wall seconds in phase")
            .set(t.seconds);
        stats.registerCounter(base + ".laps", "sampled phase scopes")
            .add(t.laps);
        phaseSeconds.push_back(t.seconds);
    }
    stats.setVector("engine.phase_seconds",
                    "sampled wall seconds per phase (Phase enum order)",
                    std::move(phaseSeconds));

    stats.registerCounter("engine.cache_hits",
                          "demand-cache + malicious-memo hits")
        .add(prof.cacheHits());
    stats.registerCounter("engine.cache_misses",
                          "demand-cache + malicious-memo misses")
        .add(prof.cacheMisses());
    stats.registerCounter("engine.cache.demand.hits",
                          "DemandCache reuse count")
        .add(prof.demandHits());
    stats.registerCounter("engine.cache.demand.misses",
                          "DemandCache rebuild count")
        .add(prof.demandMisses());
    stats.registerCounter("engine.cache.malmemo.hits",
                          "malicious-slot memo reuse count")
        .add(prof.malMemoHits());
    stats.registerCounter("engine.cache.malmemo.misses",
                          "malicious-slot memo evaluation count")
        .add(prof.malMemoMisses());

    stats.registerScalar("engine.arena.bytes",
                         "persistent engine array footprint")
        .set(static_cast<double>(prof.arenaBytes()));
    stats.registerScalar("engine.scratch.bytes",
                         "per-step scratch footprint")
        .set(static_cast<double>(prof.scratchBytes()));

    stats.registerScalar("engine.prof.sample_period",
                         "fine ticks per timed sample")
        .set(static_cast<double>(prof.samplePeriod()));
    stats.registerCounter("engine.prof.steps", "engine steps observed")
        .add(prof.steps());
    stats.registerCounter("engine.prof.sampled_steps",
                          "steps with phase timing enabled")
        .add(prof.sampledSteps());
}

} // namespace pad::engine
