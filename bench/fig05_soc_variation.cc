/**
 * @file
 * Reproduces paper Fig. 5: "Uneven utilization of distributed
 * battery system" — the standard deviation of SOC across the rack
 * batteries at each 5-minute timestamp over one month, under online
 * vs offline charging.
 *
 * Paper observation: online charging yields roughly 3-12% capacity
 * variation; offline charging nearly doubles it in many cases.
 */

#include <iostream>

#include "bench_common.h"
#include "util/stats.h"
#include "util/table.h"

using namespace pad;

namespace {

struct SeriesSummary {
    std::vector<double> stddevSeries; // % SOC per coarse step
    RunningStats stats;
};

SeriesSummary
runPolicy(const bench::ClusterWorkload &cw,
          battery::ChargePolicyKind policy, double days)
{
    core::DataCenterConfig cfg =
        bench::clusterConfig(core::SchemeKind::PS);
    cfg.charge.kind = policy;
    engine::ClusterEngine dc(cfg, cw.workload.get());
    dc.setRecordHistory(true);
    dc.runCoarseUntil(static_cast<Tick>(days * kTicksPerDay));

    SeriesSummary out;
    for (const auto &row : dc.socHistory()) {
        RunningStats rowStats;
        for (double s : row)
            rowStats.add(s * 100.0);
        out.stddevSeries.push_back(rowStats.stddev());
        out.stats.add(rowStats.stddev());
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseBenchArgs(argc, argv);
    const bench::TraceSession trace(opts);
    const double days = 30.0;
    std::cout << "=== Fig. 5: SOC standard deviation across rack "
                 "batteries (1 month, 5-min timestamps) ===\n\n";
    const auto cw = bench::makeClusterWorkload(days);

    const auto online =
        runPolicy(cw, battery::ChargePolicyKind::Online, days);
    const auto offline =
        runPolicy(cw, battery::ChargePolicyKind::Offline, days);

    TextTable summary("summary of SOC std-dev (%) over all timestamps");
    summary.setHeader({"charging", "mean", "p50", "p90", "max"});
    auto addRow = [&](const std::string &name, const SeriesSummary &s) {
        summary.addRow(name,
                       {s.stats.mean(),
                        percentile(s.stddevSeries, 50.0),
                        percentile(s.stddevSeries, 90.0),
                        s.stats.max()});
    };
    addRow("online", online);
    addRow("offline", offline);
    summary.print(std::cout);

    std::cout << "\noffline/online mean variation ratio: "
              << formatFixed(offline.stats.mean() /
                                 std::max(online.stats.mean(), 1e-9),
                             2)
              << "x  (paper: offline nearly doubles the variation)\n\n";

    // Figure data series, one sample per 4 hours.
    TextTable series("SOC std-dev series (every 4 h)");
    series.setHeader({"timestamp(x5min)", "online(%)", "offline(%)"});
    for (std::size_t i = 0; i < online.stddevSeries.size(); i += 48) {
        series.addRow(std::to_string(i),
                      {online.stddevSeries[i], offline.stddevSeries[i]});
    }
    series.print(std::cout);
    return 0;
}
