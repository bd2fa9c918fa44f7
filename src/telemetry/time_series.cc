#include "telemetry/time_series.h"

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
TimeSeries::raw() const
{
    std::vector<Sample> out;
    out.reserve(raw_.size());
    out.insert(out.end(), raw_.begin() + static_cast<std::ptrdiff_t>(head_),
               raw_.end());
    out.insert(out.end(), raw_.begin(),
               raw_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
}

} // namespace pad::telemetry
