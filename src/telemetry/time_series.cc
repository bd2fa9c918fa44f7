#include "telemetry/time_series.h"

#include <algorithm>

namespace pad::telemetry {

TimeSeries::TimeSeries(const TimeSeriesOptions &opts)
    : capacity_(opts.rawCapacity ? opts.rawCapacity : 1)
{
}

void
TimeSeries::record(Tick when, double value)
{
    const Sample s{when, value};
    if (raw_.size() < capacity_) {
        raw_.push_back(s);
    } else {
        raw_[head_] = s;
        if (++head_ == capacity_)
            head_ = 0;
    }

    if (total_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        if (value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
    }
    sum_ += value;
    ++total_;
    last_ = s;
}

double
TimeSeries::overallMean() const
{
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

std::vector<Sample>
TimeSeries::newest(std::size_t n) const
{
    // Chronological order is raw_[head_, end) then raw_[0, head_);
    // take the last n of that.
    n = std::min(n, raw_.size());
    const std::size_t older = n > head_ ? n - head_ : 0;
    const std::size_t newer = n - older;
    std::vector<Sample> out;
    out.reserve(n);
    const auto at = [this](std::size_t i) {
        return raw_.begin() + static_cast<std::ptrdiff_t>(i);
    };
    out.insert(out.end(), at(raw_.size() - older), raw_.end());
    out.insert(out.end(), at(head_ - newer), at(head_));
    return out;
}

} // namespace pad::telemetry
