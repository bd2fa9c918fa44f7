/**
 * @file
 * Wall-clock timing utilities for the perf benches.
 *
 * Every measurement follows the same discipline: run the body a few
 * times untimed to warm caches, branch predictors and lazy
 * allocations, then time a fixed number of repetitions and report the
 * median (robust against scheduler noise) alongside the minimum (the
 * least-disturbed run) and the mean. google-benchmark is deliberately
 * not used here so the perf harness builds identically on machines
 * that lack it and so BENCH_*.json stays under our own schema.
 */

#ifndef PAD_BENCH_PERF_TIMING_H
#define PAD_BENCH_PERF_TIMING_H

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace pad::bench {

/** Monotonic wall-clock timestamp, seconds. */
inline double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Compiler sink: forces @p v to be materialized so a timed loop
 * cannot be dead-code-eliminated.
 */
inline void
keep(double v)
{
    volatile double sink = v;
    (void)sink;
}

/** Summary statistics over repeated timed runs, seconds per run. */
struct TimingResult {
    double medianSec = 0.0;
    double minSec = 0.0;
    double meanSec = 0.0;
    /** First and third quartiles: their distance is the run's noise. */
    double q1Sec = 0.0;
    double q3Sec = 0.0;
    int reps = 0;
};

/** Linear-interpolated quantile @p q of sorted, non-empty @p s. */
inline double
sortedQuantile(const std::vector<double> &s, double q)
{
    const double pos = q * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

/** Reduce raw per-repetition wall times into a TimingResult. */
inline TimingResult
summarize(std::vector<double> samples)
{
    TimingResult out;
    out.reps = static_cast<int>(samples.size());
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    out.minSec = samples.front();
    const std::size_t n = samples.size();
    out.medianSec = n % 2 == 1
                        ? samples[n / 2]
                        : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
    out.q1Sec = sortedQuantile(samples, 0.25);
    out.q3Sec = sortedQuantile(samples, 0.75);
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    out.meanSec = sum / static_cast<double>(n);
    return out;
}

/**
 * Time @p fn: @p warmup untimed calls, then @p reps timed calls.
 * Use this for bodies that can run back-to-back without per-run
 * setup; when each repetition needs fresh state, time the runs by
 * hand with nowSec() and feed the samples to summarize().
 */
template <typename Fn>
TimingResult
timeIt(Fn &&fn, int warmup, int reps)
{
    for (int i = 0; i < warmup; ++i)
        fn();
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSec();
        fn();
        samples.push_back(nowSec() - t0);
    }
    return summarize(std::move(samples));
}

} // namespace pad::bench

#endif // PAD_BENCH_PERF_TIMING_H
