/**
 * @file
 * Quickstart: build a battery-backed cluster from a synthetic
 * Google-style trace, run a day of normal operation, then launch a
 * two-phase power attack against it under two management schemes and
 * compare survival times.
 *
 * Walks through the main public APIs:
 *  - trace::SyntheticGoogleTrace / trace::Workload
 *  - core::DataCenterConfig / engine::ClusterEngine
 *  - attack::TwoPhaseAttacker
 */

#include <iostream>

#include "attack/attacker.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/table.h"

using namespace pad;

int
main()
{
    // 1. Generate a Google-style cluster trace: 220 machines, 2 days,
    //    5-minute slots (see DESIGN.md for the substitution note).
    trace::SyntheticTraceConfig tc;
    tc.machines = 220;
    tc.days = 2.0;
    trace::SyntheticGoogleTrace gen(tc);
    const auto events = gen.generate();
    trace::Workload workload(events, tc.machines,
                             static_cast<Tick>(tc.days * kTicksPerDay));
    std::cout << "trace: " << events.size() << " tasks, mean util "
              << formatPercent(workload.overallMeanUtil()) << "\n";

    // 2. Configure the paper's cluster: 22 racks x 10 DL585 G5
    //    servers, one DEB cabinet per rack (50 s at full rack load).
    core::DataCenterConfig base;
    base.deb = core::defaultDebConfig(base.rackNameplate());
    std::cout << "cluster: " << base.racks << " racks, budget "
              << formatFixed(base.clusterBudget() / 1000.0, 1)
              << " kW (" << formatPercent(base.budgetFraction)
              << " of nameplate)\n\n";

    // 3. Attack each scheme after a day of normal operation.
    TextTable table("two-phase CPU-virus attack, 4 malicious nodes");
    table.setHeader({"scheme", "survival (s)", "throughput",
                     "phase-II at (s)"});

    for (core::SchemeKind scheme :
         {core::SchemeKind::Conv, core::SchemeKind::PS,
          core::SchemeKind::Pad}) {
        core::DataCenterConfig cfg = base;
        cfg.scheme = scheme;
        engine::ClusterEngine dc(cfg, &workload);
        dc.runCoarseUntil(kTicksPerDay + 14 * kTicksPerHour);

        attack::AttackerConfig ac;
        ac.controlledNodes = 4;
        ac.kind = attack::VirusKind::CpuIntensive;
        ac.train = attack::SpikeTrain{2.0, 4.0, 1.0};
        attack::TwoPhaseAttacker attacker(ac);

        core::AttackScenario scenario;
        // Attack the same (75th-percentile load) rack under every
        // scheme so survival times are comparable.
        scenario.targetPolicy = core::TargetPolicy::Fixed;
        scenario.targetRack = core::rackByLoadPercentile(
            workload, cfg, dc.now(), dc.now() + kTicksPerHour, 75.0);
        scenario.durationSec = 1500.0;
        const auto outcome = dc.runAttack(attacker, scenario);

        table.addRow(core::schemeName(scheme),
                     {outcome.survivalSec, outcome.throughput,
                      outcome.phaseTwoStartSec});
    }
    table.print(std::cout);
    return 0;
}
