/**
 * @file
 * Ablation: task placement policy vs rack power peaks and battery
 * pressure.
 *
 * The paper's vulnerability story starts with the scheduler: rack
 * power allocation is "largely workload-driven and consequently
 * overlooks the pressure the server rack may exert on batteries"
 * (§IV-B.1). This bench re-places the same synthetic job stream
 * under four policies and measures the rack-peak statistics and the
 * resulting battery engagement — power-aware placement flattens the
 * peaks before any battery has to.
 *
 * Placement itself is cheap and stays serial; the five expensive
 * evaluations (utilization scan + a coarse PS day) run on the
 * SweepRunner pool (`--jobs N`).
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "sched/job_scheduler.h"
#include "util/table.h"

using namespace pad;

namespace {

struct PlacementRow {
    double hottest = 0.0;
    double maxUtil = 0.0;
    int hotRacks = 0;
    double minSoc = 1.0;
};

PlacementRow
evaluate(const std::vector<trace::TaskEvent> &events)
{
    trace::Workload workload(events, 220, 2 * kTicksPerDay);
    PlacementRow row;

    // Rack utilization statistics over the horizon.
    core::DataCenterConfig cfg =
        bench::clusterConfig(core::SchemeKind::PS);
    power::ServerPowerModel model(cfg.server);
    std::vector<bool> everHot(22, false);
    for (int r = 0; r < 22; ++r) {
        double mean = 0.0;
        int samples = 0;
        for (Tick t = 0; t < 2 * kTicksPerDay;
             t += 15 * kTicksPerMinute) {
            double util = 0.0, powerW = 0.0;
            for (int s = 0; s < 10; ++s) {
                util += workload.utilAt(r * 10 + s, t);
                powerW += model.power(
                    workload.utilAt(r * 10 + s, t));
            }
            util /= 10.0;
            mean += util;
            ++samples;
            row.maxUtil = std::max(row.maxUtil, util);
            if (powerW > cfg.rackBudget())
                everHot[static_cast<std::size_t>(r)] = true;
        }
        row.hottest = std::max(row.hottest, mean / samples);
    }
    for (bool h : everHot)
        row.hotRacks += h;

    // Battery pressure after a day of PS operation.
    engine::ClusterEngine dc(cfg, &workload);
    dc.runCoarseUntil(kTicksPerDay + 15 * kTicksPerHour);
    for (double s : dc.allSocs())
        row.minSoc = std::min(row.minSoc, s);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseBenchArgs(argc, argv);
    std::cout << "=== ablation: task placement policy vs rack "
                 "peaks ===\n\n";

    // One job stream, re-placed under each policy.
    const auto base = bench::makeClusterWorkload(2.0);
    const auto jobs = sched::jobsFromEvents(base.events);

    std::vector<std::string> names;
    std::vector<std::vector<trace::TaskEvent>> placements;
    // Baseline: the trace's own (skewed) machine assignment.
    names.push_back("trace-native (skewed)");
    placements.push_back(base.events);
    for (sched::PlacementPolicy policy :
         {sched::PlacementPolicy::RoundRobin,
          sched::PlacementPolicy::Random,
          sched::PlacementPolicy::LeastLoaded,
          sched::PlacementPolicy::PowerAware}) {
        sched::JobScheduler scheduler(220, 10, policy);
        names.push_back(sched::placementPolicyName(policy));
        placements.push_back(scheduler.schedule(jobs));
    }

    const runner::SweepRunner pool(opts.runnerOptions());
    const auto rows = pool.map(placements.size(), [&](std::size_t i) {
        return evaluate(placements[i]);
    });

    TextTable table("placement policy comparison (2 days)");
    table.setHeader({"policy", "hottest rack mean util",
                     "max rack util", "racks ever over budget",
                     "min SOC after day 1 (PS)"});
    for (std::size_t i = 0; i < rows.size(); ++i)
        table.addRow({names[i], formatPercent(rows[i].hottest, 1),
                      formatPercent(rows[i].maxUtil, 1),
                      std::to_string(rows[i].hotRacks),
                      formatPercent(rows[i].minSoc, 1)});
    table.print(std::cout);

    std::cout << "\n(trace-skewed and random placement concentrate "
                 "load into hot racks whose DEBs cycle daily — the "
                 "vulnerable targets of Fig. 13; power-aware "
                 "spreading removes the pressure at the source)\n";
    return 0;
}
