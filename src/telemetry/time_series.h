/**
 * @file
 * Fixed-memory telemetry time series.
 *
 * A telemetry::TimeSeries keeps the most recent raw samples in a
 * fixed-size ring buffer. Memory is bounded regardless of run length:
 * once the ring fills, the oldest entries are evicted, but
 * whole-series aggregates (total count, overall min/max/mean, latest
 * sample) remain exact because they are maintained incrementally.
 *
 * This type differs from sim::TimeSeries (an append-only trajectory
 * used by figure benches, which must retain every point): telemetry
 * series are for live inspection and Prometheus exposition at
 * production scale, where unbounded growth is unacceptable.
 *
 * Timestamps are sim Ticks and are expected to be non-decreasing, as
 * produced by the simulator loop.
 */

#ifndef PAD_TELEMETRY_TIME_SERIES_H
#define PAD_TELEMETRY_TIME_SERIES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace pad::telemetry {

/** One raw observation. */
struct Sample {
    Tick when = 0;
    double value = 0.0;
};

/** Capacity knob; the default bounds a series to 64 KiB of samples. */
struct TimeSeriesOptions {
    /** Raw samples retained (newest wins once full). */
    std::size_t rawCapacity = 4096;
};

class TimeSeries
{
  public:
    explicit TimeSeries(const TimeSeriesOptions &opts = {});

    /** Record one sample; @p when should be non-decreasing. */
    void record(Tick when, double value);

    /** True when no sample was ever recorded. */
    bool empty() const { return total_ == 0; }

    /** Samples ever recorded, including ones evicted from the ring. */
    std::uint64_t totalSamples() const { return total_; }

    /** Samples currently held in the raw ring. */
    std::size_t rawSize() const { return raw_.size(); }

    /** Newest sample; zero-initialised when empty(). */
    Sample last() const { return last_; }

    /** Exact aggregates over every sample ever recorded. */
    double overallMin() const { return total_ ? min_ : 0.0; }
    double overallMax() const { return total_ ? max_ : 0.0; }
    double overallMean() const;

    /** Raw retained samples in chronological order. */
    std::vector<Sample> raw() const { return newest(raw_.size()); }

    /**
     * The newest min(@p n, rawSize()) retained samples in
     * chronological order: O(n), however full the ring.
     */
    std::vector<Sample> newest(std::size_t n) const;

  private:
    // Ring of the newest samples: raw_ grows to capacity_, then
    // head_ marks the oldest entry, the next to be overwritten.
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::vector<Sample> raw_;

    Sample last_;
    std::uint64_t total_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

} // namespace pad::telemetry

#endif // PAD_TELEMETRY_TIME_SERIES_H
