/**
 * @file
 * EngineProfiler -> StatsRegistry export.
 *
 * Lives in the engine layer (not obs) on purpose: pad_sim publicly
 * links pad_obs, so the profiler itself must stay sim-free — the same
 * layering that keeps obs::Manifest consuming pre-rendered JSON. The
 * engine layer links both sides and owns the translation.
 *
 * Exported names (all under "engine."):
 *
 *   engine.phase.<name>.seconds   scalar, sampled wall seconds
 *   engine.phase.<name>.laps      counter, sampled scope count
 *   engine.phase_seconds          vector, Phase enum order
 *                                 -> pad_engine_phase_seconds{index}
 *   engine.cache_hits             counter -> pad_engine_cache_hits_total
 *   engine.cache_misses           counter
 *   engine.cache.demand.hits/.misses
 *   engine.cache.malmemo.hits/.misses
 *   engine.arena.bytes            scalar
 *   engine.scratch.bytes          scalar
 *   engine.prof.sample_period     scalar (scale factor for seconds)
 *   engine.prof.steps             counter
 *   engine.prof.sampled_steps     counter
 */

#ifndef PAD_ENGINE_PROF_STATS_H
#define PAD_ENGINE_PROF_STATS_H

#include "obs/prof.h"
#include "sim/stats_registry.h"

namespace pad::engine {

/** Write the profiler's totals into @p stats under "engine.*". */
void exportProfilerStats(const obs::EngineProfiler &prof,
                         sim::StatsRegistry &stats);

} // namespace pad::engine

#endif // PAD_ENGINE_PROF_STATS_H
