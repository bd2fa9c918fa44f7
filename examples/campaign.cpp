/**
 * @file
 * A day-long attack campaign: the adversary strikes three times —
 * pre-dawn (batteries full, cluster idle), late morning (load
 * rising) and at the afternoon peak — against a PAD-protected and a
 * PS-protected cluster. Demonstrates the CampaignDriver and how
 * attack timing interacts with the defense ("wait for the best time
 * to attack", paper §III-A).
 */

#include <iostream>

#include "engine/campaign.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/table.h"

using namespace pad;

namespace {

engine::CampaignAttack
strike(Tick at, int nodes)
{
    engine::CampaignAttack s;
    s.startAt = at;
    s.attacker.controlledNodes = nodes;
    s.attacker.kind = attack::VirusKind::CpuIntensive;
    s.attacker.train = attack::SpikeTrain{2.0, 4.0, 1.0, 0.55};
    s.attacker.prepareSec = 60.0;
    s.attacker.maxDrainSec = 400.0;
    s.scenario.targetPolicy = core::TargetPolicy::MostVulnerable;
    s.scenario.durationSec = 1200.0;
    return s;
}

} // namespace

int
main()
{
    trace::SyntheticTraceConfig tc;
    tc.machines = 220;
    tc.days = 2.0;
    trace::SyntheticGoogleTrace gen(tc);
    const auto events = gen.generate();
    trace::Workload workload(events, tc.machines, 2 * kTicksPerDay);

    std::cout << "three strikes over day 2: 04:00, 10:00, 14:00 "
                 "(most-vulnerable rack each time)\n\n";

    for (core::SchemeKind scheme :
         {core::SchemeKind::PS, core::SchemeKind::Pad}) {
        core::DataCenterConfig cfg;
        cfg.scheme = scheme;
        cfg.clusterBudgetFraction = 0.70;
        cfg.deb = core::defaultDebConfig(cfg.rackNameplate());
        engine::ClusterEngine dc(cfg, &workload);

        std::vector<engine::CampaignAttack> plan{
            strike(kTicksPerDay + 4 * kTicksPerHour, 4),
            strike(kTicksPerDay + 10 * kTicksPerHour, 4),
            strike(kTicksPerDay + 14 * kTicksPerHour, 4),
        };
        engine::CampaignDriver driver(dc, std::move(plan));
        const auto report = driver.run(2 * kTicksPerDay);

        TextTable table("campaign against " +
                        core::schemeName(scheme));
        table.setHeader({"strike at", "survival (s)",
                         "effective attacks", "overloaded"});
        for (const auto &s : report.strikes) {
            const double hour =
                ticksToSeconds(s.startedAt - kTicksPerDay) / 3600.0;
            table.addRow({formatFixed(hour, 0) + ":00",
                          formatFixed(s.survivalSec, 0),
                          std::to_string(s.effectiveAttacks),
                          s.overloaded ? "YES" : "no"});
        }
        table.print(std::cout);
        std::cout << "successful strikes: "
                  << report.successfulStrikes << "/"
                  << report.strikes.size()
                  << ", campaign throughput: "
                  << formatFixed(report.overallThroughput, 3)
                  << "\n\n";
    }
    std::cout << "(the pre-dawn strike fails everywhere — batteries "
                 "are full and the cluster has headroom; timing at "
                 "the peak is what makes attacks effective)\n";
    return 0;
}
