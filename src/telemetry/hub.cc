#include "telemetry/hub.h"

#include <algorithm>

#include "util/logging.h"

namespace pad::telemetry {

void
TelemetryHub::record(std::string_view name, Tick when, double value)
{
    const Sample s{when, value};
    recordMany(name, &s, 1);
}

TelemetryHub::SeriesMap::value_type &
TelemetryHub::node(std::string_view name)
{
    auto it = series_.find(name);
    if (it == series_.end()) {
        const auto id = static_cast<std::uint32_t>(byId_.size());
        it = series_.emplace(std::string(name), Entry{TimeSeries(opts_), id})
                 .first;
        byId_.push_back(&*it);
    }
    return *it;
}

void
TelemetryHub::recordMany(std::string_view name, const Sample *samples,
                         std::size_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    Entry &entry = node(name).second;
    for (std::size_t i = 0; i < n; ++i) {
        entry.series.record(samples[i].when, samples[i].value);
        if (listener_)
            listener_->onSample(entry.id, name, samples[i].when,
                                samples[i].value);
    }
}

std::uint32_t
TelemetryHub::seriesId(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return node(name).second.id;
}

void
TelemetryHub::recordRow(Tick when, const std::uint32_t *ids,
                        const double *values, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < n; ++i) {
        PAD_ASSERT(ids[i] < byId_.size(), "unknown series id");
        auto &[name, entry] = *byId_[ids[i]];
        entry.series.record(when, values[i]);
        if (listener_)
            listener_->onSample(ids[i], name, when, values[i]);
    }
}

void
TelemetryHub::setListener(SampleListener *listener)
{
    std::lock_guard<std::mutex> lock(mu_);
    listener_ = listener;
}

const TimeSeries *
TelemetryHub::find(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second.series;
}

std::vector<std::string>
TelemetryHub::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto &[name, entry] : series_)
        out.push_back(name);
    return out;
}

std::size_t
TelemetryHub::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return series_.size();
}

std::vector<TelemetryHub::SeriesSummary>
TelemetryHub::summary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SeriesSummary> out;
    out.reserve(series_.size());
    for (const auto &[name, entry] : series_) {
        const TimeSeries &series = entry.series;
        SeriesSummary s;
        s.name = name;
        s.last = series.last();
        s.count = series.totalSamples();
        s.min = series.overallMin();
        s.max = series.overallMax();
        s.mean = series.overallMean();
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<TelemetryHub::RawSeries>
TelemetryHub::rawSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<RawSeries> out;
    out.reserve(series_.size());
    for (const auto &[name, entry] : series_) {
        RawSeries s;
        s.name = name;
        s.id = entry.id;
        s.totalSamples = entry.series.totalSamples();
        s.raw = entry.series.raw();
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<TelemetryHub::RawSeries>
TelemetryHub::rawSince(const std::vector<std::uint64_t> &cursors) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<RawSeries> out;
    for (const auto &[name, entry] : series_) {
        const std::uint64_t total = entry.series.totalSamples();
        const std::uint64_t fresh =
            total - (entry.id < cursors.size() ? cursors[entry.id] : 0);
        if (fresh == 0)
            continue;
        RawSeries s;
        s.name = name;
        s.id = entry.id;
        s.totalSamples = total;
        s.raw = entry.series.newest(static_cast<std::size_t>(
            std::min<std::uint64_t>(fresh, entry.series.rawSize())));
        out.push_back(std::move(s));
    }
    return out;
}

void
TelemetryHub::mergeFrom(const TelemetryHub &other, const std::string &prefix)
{
    // Copy the source series under its lock first so self-merge and
    // lock-order issues cannot arise.
    SeriesMap copy;
    {
        std::lock_guard<std::mutex> lock(other.mu_);
        copy = other.series_;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, entry] : copy) {
        // An empty series carries no samples and would only add
        // zero-valued rows to summaries and Prometheus expositions.
        if (entry.series.empty())
            continue;
        // Ids are hub-local: a merged-in series keeps the target's
        // existing id or receives a fresh one, never the source's.
        node(prefix + name).second.series = std::move(entry.series);
    }
}

} // namespace pad::telemetry
