/**
 * @file
 * Engine self-profiling: where does simulation time actually go?
 *
 * EngineProfiler is the cluster engine's introspection seam. It
 * accumulates
 *
 *   - per-phase wall time (demand eval, KiBaM batch step, µDEB shave,
 *     detector, telemetry flush) via RAII PhaseScope,
 *   - cache effectiveness counters (DemandCache and malicious-slot
 *     memo hits/misses),
 *   - arena/scratch footprint gauges.
 *
 * Cost contract. Engines hold a nullable EngineProfiler pointer and
 * guard every touch with `if (prof_)` — detached, profiling is a
 * pointer test and nothing else, so all outputs stay byte-identical
 * to an unprofiled run. Attached, counters are plain increments and
 * phase timing is *sampled*: coarse steps always time their phases,
 * fine ticks only every samplePeriod()-th tick, keeping the enabled
 * overhead on `single_run` within the perfbench-verified 5% budget.
 * Reported phase seconds are therefore sampled sums; shares between
 * phases are unbiased, and multiplying by samplePeriod() estimates
 * wall totals (padtrace perf does both).
 *
 * Determinism. Lap/step/cache counts are pure functions of the
 * simulation, so they are bit-identical between serial and parallel
 * sweeps. Wall-clock phase seconds are not — unless the clock is
 * replaced via setClock() with a deterministic source, which is how
 * the parallel-vs-serial merge test pins the full stat set.
 *
 * Threading. One profiler instance belongs to one engine run and is
 * touched only by the thread running it, so no atomics are needed.
 */

#ifndef PAD_OBS_PROF_H
#define PAD_OBS_PROF_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace pad::obs {

class EngineProfiler
{
  public:
    /** Engine pipeline phases, in export (vector-index) order. */
    enum class Phase : std::uint8_t {
        DemandEval = 0,     ///< demand cache refresh / workload eval
        KibamBatch = 1,     ///< KiBaM discharge + recharge battery step
        UdebShave = 2,      ///< µDEB peak shaving
        Detector = 3,       ///< anomaly detector + policy decisions
        TelemetryFlush = 4, ///< telemetry hub sampling
        /// Reserved: the sharded demand refresh it timed is gone, but
        /// the name stays so the six exported phases keep their names.
        ShardMerge = 5,
    };
    static constexpr std::size_t kPhaseCount = 6;

    /** Stable lower_snake name for a phase ("demand_eval", ...). */
    static std::string_view phaseName(Phase p);
    static std::string_view phaseName(std::size_t index);

    /** Monotonic clock in seconds; replaceable for determinism. */
    using ClockFn = double (*)();

    /** Default fine-tick sampling period (time every Nth tick). */
    static constexpr int kDefaultSamplePeriod = 8;

    explicit EngineProfiler(int samplePeriod = kDefaultSamplePeriod);

    /** Swap the wall clock (tests); nullptr restores steady_clock. */
    void setClock(ClockFn clock);

    /** Time every Nth fine tick; clamped to >= 1. */
    void setSamplePeriod(int period);
    int samplePeriod() const { return samplePeriod_; }

    /**
     * Engines call this once at the top of every step. Coarse steps
     * always sample their phases; fine ticks sample every Nth.
     */
    void
    beginStep(bool fine)
    {
        ++steps_;
        if (!fine || samplePeriod_ == 1)
            sampling_ = true;
        else
            sampling_ = (fineTicks_++ % samplePeriod_) == 0;
        if (sampling_)
            ++sampledSteps_;
    }

    /** True when the current step's phases are being timed. */
    bool sampling() const { return sampling_; }

    double now() const { return clock_(); }

    void
    addPhase(Phase p, double seconds)
    {
        PhaseTotals &t = phases_[static_cast<std::size_t>(p)];
        t.seconds += seconds;
        ++t.laps;
    }

    // -- cache effectiveness (unconditional, one increment each) ----
    void demandHit() { ++demandHits_; }
    void demandMiss() { ++demandMisses_; }
    void malMemoHit() { ++malMemoHits_; }
    void malMemoMiss() { ++malMemoMisses_; }

    // -- gauges ------------------------------------------------------
    void setArenaBytes(std::size_t bytes) { arenaBytes_ = bytes; }
    void setScratchBytes(std::size_t bytes) { scratchBytes_ = bytes; }

    // -- inspection --------------------------------------------------
    struct PhaseTotals {
        double seconds = 0.0;   ///< sampled wall seconds
        std::uint64_t laps = 0; ///< sampled scope count
    };

    const PhaseTotals &phase(Phase p) const
    {
        return phases_[static_cast<std::size_t>(p)];
    }
    const std::array<PhaseTotals, kPhaseCount> &phases() const
    {
        return phases_;
    }
    std::uint64_t demandHits() const { return demandHits_; }
    std::uint64_t demandMisses() const { return demandMisses_; }
    std::uint64_t malMemoHits() const { return malMemoHits_; }
    std::uint64_t malMemoMisses() const { return malMemoMisses_; }
    std::uint64_t cacheHits() const { return demandHits_ + malMemoHits_; }
    std::uint64_t cacheMisses() const
    {
        return demandMisses_ + malMemoMisses_;
    }
    std::size_t arenaBytes() const { return arenaBytes_; }
    std::size_t scratchBytes() const { return scratchBytes_; }
    std::uint64_t steps() const { return steps_; }
    std::uint64_t sampledSteps() const { return sampledSteps_; }

    /** Total sampled wall seconds across all phases. */
    double totalPhaseSeconds() const;

    /**
     * Emit cumulative totals as Chrome counter events (phase
     * milliseconds, cache hit/miss counts) stamped at the current
     * trace clock. Callers guard with traceEnabled().
     */
    void emitTraceCounters() const;

    /** Forget everything except clock and sample period. */
    void reset();

  private:
    ClockFn clock_;
    int samplePeriod_;
    bool sampling_ = false;
    std::uint64_t fineTicks_ = 0;
    std::uint64_t steps_ = 0;
    std::uint64_t sampledSteps_ = 0;
    std::array<PhaseTotals, kPhaseCount> phases_{};
    std::uint64_t demandHits_ = 0;
    std::uint64_t demandMisses_ = 0;
    std::uint64_t malMemoHits_ = 0;
    std::uint64_t malMemoMisses_ = 0;
    std::size_t arenaBytes_ = 0;
    std::size_t scratchBytes_ = 0;
};

/**
 * RAII phase timer. Free when @p prof is null or the current step is
 * not sampled: the constructor collapses to a pointer test and the
 * destructor to a null check, with no clock reads.
 */
class PhaseScope
{
  public:
    PhaseScope(EngineProfiler *prof, EngineProfiler::Phase phase)
        : prof_(prof && prof->sampling() ? prof : nullptr), phase_(phase)
    {
        if (prof_)
            start_ = prof_->now();
    }

    ~PhaseScope()
    {
        if (prof_)
            prof_->addPhase(phase_, prof_->now() - start_);
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    EngineProfiler *prof_;
    EngineProfiler::Phase phase_;
    double start_ = 0.0;
};

} // namespace pad::obs

#endif // PAD_OBS_PROF_H
