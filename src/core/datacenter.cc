#include "core/datacenter.h"

#include <algorithm>

#include "power/server_power_model.h"
#include "util/logging.h"

namespace pad::core {

int
rackByLoadPercentile(const trace::Workload &workload,
                     const DataCenterConfig &config, Tick from, Tick to,
                     double percentile)
{
    PAD_ASSERT(to > from);
    PAD_ASSERT(percentile >= 0.0 && percentile <= 100.0);
    power::ServerPowerModel model(config.server);
    std::vector<std::pair<double, int>> byPower;
    for (int r = 0; r < config.racks; ++r) {
        double acc = 0.0;
        int samples = 0;
        for (Tick t = from; t < to; t += config.coarseStep) {
            for (int s = 0; s < config.serversPerRack; ++s) {
                const int machine = r * config.serversPerRack + s;
                acc += model.power(workload.utilAt(machine, t));
            }
            ++samples;
        }
        byPower.emplace_back(acc / std::max(samples, 1), r);
    }
    std::sort(byPower.begin(), byPower.end());
    const auto idx = static_cast<std::size_t>(
        percentile / 100.0 *
        static_cast<double>(byPower.size() - 1));
    return byPower[idx].second;
}

} // namespace pad::core
