/**
 * @file
 * TelemetryHub: a named collection of telemetry time series.
 *
 * The hub owns one telemetry::TimeSeries per dotted metric name
 * ("rack3.power", "policy.level", ...) and is safe to record into
 * from the simulation thread while another thread (the optional
 * metrics HTTP endpoint) renders summaries. Series are created
 * lazily on first record with the hub's capacity options. A caller
 * that records the same series every step resolves their names to
 * ids once (seriesId()) and records whole rows by id (recordRow()).
 *
 * Hubs from independent sweep jobs combine with mergeFrom(), which
 * copies every series under a caller-supplied name prefix; merging
 * job hubs in submission order is deterministic for any worker
 * count, mirroring the StatsRegistry contract.
 */

#ifndef PAD_TELEMETRY_HUB_H
#define PAD_TELEMETRY_HUB_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/time_series.h"

namespace pad::telemetry {

/**
 * Observer of every sample recorded into a TelemetryHub. The hub
 * invokes the listener synchronously on the recording thread while
 * holding its lock, so implementations must be cheap, must not call
 * back into the hub, and need no synchronisation of their own when
 * samples come from a single simulation thread (the alert engine's
 * contract, DESIGN.md §10).
 */
class SampleListener
{
  public:
    virtual ~SampleListener() = default;

    /** One sample just recorded into series @p name. */
    virtual void onSample(std::string_view name, Tick when,
                          double value) = 0;

    /**
     * The same sample, with the hub's series id: a dense integer
     * assigned at series creation (0, 1, 2, ...), stable for the
     * hub's lifetime. Listeners with per-series state can index by
     * id and skip name lookups on the hot path; the default simply
     * forwards to the by-name overload.
     */
    virtual void
    onSample(std::uint32_t seriesId, std::string_view name, Tick when,
             double value)
    {
        (void)seriesId;
        onSample(name, when, value);
    }
};

class TelemetryHub
{
  public:
    TelemetryHub() = default;
    explicit TelemetryHub(const TimeSeriesOptions &opts) : opts_(opts) {}

    /** Record one sample into the series @p name (created lazily). */
    void record(std::string_view name, Tick when, double value);

    /**
     * Record @p n samples into the series @p name in order, under one
     * lock and one lookup: the same result, listener calls included,
     * as n record() calls. n == 0 creates no series.
     */
    void recordMany(std::string_view name, const Sample *samples,
                    std::size_t n);

    /**
     * The hub-local id of series @p name, creating the series (empty,
     * listed by names() and summary() until its first sample) if
     * absent. Ids never change, so callers that record the same names
     * every step resolve them once and record by id after.
     */
    std::uint32_t seriesId(std::string_view name);

    /**
     * Record values[i] into series ids[i] at @p when for i in
     * [0, n), in order, under one lock: the same result, listener
     * calls included, as n record() calls by name. Every id must
     * come from seriesId() on this hub.
     */
    void recordRow(Tick when, const std::uint32_t *ids,
                   const double *values, std::size_t n);

    /**
     * Attach @p listener (or detach with nullptr): every subsequent
     * record() also invokes the listener. Not owned; the caller must
     * detach before the listener is destroyed.
     */
    void setListener(SampleListener *listener);

    /**
     * Series by name, or nullptr. The pointer stays valid for the
     * hub's lifetime (map nodes are stable) but reading it while a
     * writer thread records is not synchronised — use summary() for
     * concurrent access, find() for post-run inspection.
     */
    const TimeSeries *find(std::string_view name) const;

    /** Sorted names of every series. */
    std::vector<std::string> names() const;

    std::size_t size() const;
    bool empty() const { return size() == 0; }

    /** Point-in-time digest of one series, safe to take mid-run. */
    struct SeriesSummary {
        std::string name;
        Sample last;
        std::uint64_t count = 0;
        double min = 0.0;
        double max = 0.0;
        double mean = 0.0;
    };

    /** Digest of every series, sorted by name, under the hub lock. */
    std::vector<SeriesSummary> summary() const;

    /**
     * Point-in-time copy of one series' retained raw samples plus
     * the exact total-ever-recorded count, for incremental consumers
     * (the remote-write shipper) that keep a per-series cursor: the
     * newest (totalSamples - cursor) samples of `raw` are the ones
     * not yet seen, and any shortfall beyond the ring's retention is
     * known to be lost rather than silently skipped.
     */
    struct RawSeries {
        std::string name;
        /** Dense hub-local series id (creation order). */
        std::uint32_t id = 0;
        /** Samples ever recorded, including evicted ones. */
        std::uint64_t totalSamples = 0;
        /** Retained ring contents, chronological. */
        std::vector<Sample> raw;
    };

    /** Raw snapshot of every series, sorted by name, under the lock. */
    std::vector<RawSeries> rawSnapshot() const;

    /**
     * rawSnapshot() cut down for an incremental consumer: only the
     * series with samples past cursors[id] (ids beyond the vector
     * count as 0), each holding only its retained samples past the
     * cursor. Costs O(new samples), however full the rings are.
     */
    std::vector<RawSeries>
    rawSince(const std::vector<std::uint64_t> &cursors) const;

    /**
     * Copy every series of @p other into this hub under
     * @p prefix + name. Existing series with colliding names are
     * replaced, keeping the operation idempotent.
     */
    void mergeFrom(const TelemetryHub &other, const std::string &prefix);

  private:
    struct Entry {
        TimeSeries series;
        std::uint32_t id = 0;
    };
    using SeriesMap = std::map<std::string, Entry, std::less<>>;

    /** Series @p name, created if absent; mu_ must be held. */
    SeriesMap::value_type &node(std::string_view name);

    mutable std::mutex mu_;
    TimeSeriesOptions opts_;
    SampleListener *listener_ = nullptr;
    SeriesMap series_;
    /** series_ nodes by id; map nodes never move. */
    std::vector<SeriesMap::value_type *> byId_;
};

} // namespace pad::telemetry

#endif // PAD_TELEMETRY_HUB_H
