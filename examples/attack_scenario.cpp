/**
 * @file
 * Walkthrough of the paper's two-phase power attack against a
 * battery-backed cluster, narrated step by step:
 *
 *   1. the adversary places VMs on victim racks and blends in;
 *   2. Phase I: a sustained visible peak drains the DEB while the
 *      performance side channel watches for DVFS throttling;
 *   3. Phase II: hidden spikes against the drained rack;
 *   4. the outcome is priced with the Ponemon outage-cost model.
 *
 * Demonstrates TwoPhaseAttacker, AttackOutcome telemetry series and
 * OutageCostModel.
 */

#include <iostream>

#include "attack/attacker.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "core/outage_cost.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/table.h"

using namespace pad;

int
main()
{
    // A power-constrained facility: rack soft limits at 75% of
    // nameplate, the PDU at 70%.
    trace::SyntheticTraceConfig tc;
    tc.machines = 220;
    tc.days = 2.0;
    trace::SyntheticGoogleTrace gen(tc);
    const auto events = gen.generate();
    trace::Workload workload(events, tc.machines,
                             static_cast<Tick>(tc.days * kTicksPerDay));

    core::DataCenterConfig cfg;
    cfg.scheme = core::SchemeKind::PS; // the undefended state of the art
    cfg.clusterBudgetFraction = 0.70;
    cfg.deb = core::defaultDebConfig(cfg.rackNameplate());
    engine::ClusterEngine dc(cfg, &workload);

    std::cout << "== preparation ==\n"
              << "warming the cluster to 11:00 on day 2; the "
                 "adversary holds 4 nodes in each of 6 racks\n\n";
    dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);

    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    ac.kind = attack::VirusKind::CpuIntensive;
    ac.train = attack::SpikeTrain{2.0, 4.0, 1.0, 0.55};
    ac.prepareSec = 60.0;
    ac.maxDrainSec = 600.0;
    attack::TwoPhaseAttacker attacker(ac);

    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::Fixed;
    sc.targetRack = core::rackByLoadPercentile(
        workload, cfg, dc.now(), dc.now() + kTicksPerHour, 90.0);
    for (double pct : {85.0, 80.0, 75.0, 70.0, 65.0}) {
        const int extra = core::rackByLoadPercentile(
            workload, cfg, dc.now(), dc.now() + kTicksPerHour, pct);
        if (extra != sc.targetRack)
            sc.extraVictimRacks.push_back(extra);
    }
    sc.durationSec = 1500.0;

    const auto out = dc.runAttack(attacker, sc);

    std::cout << "== attack timeline (victim rack " << sc.targetRack
              << ") ==\n";
    TextTable table("");
    table.setHeader({"t(s)", "rack demand (W)", "utility draw (W)",
                     "DEB SOC"});
    const Tick start = out.rackPower.samples().front().when;
    for (Tick t = start; t < start + secondsToTicks(sc.durationSec);
         t += 2 * kTicksPerMinute) {
        table.addRow({formatFixed(ticksToSeconds(t - start), 0),
                      formatFixed(out.rackPower.valueAt(t), 0),
                      formatFixed(out.rackDraw.valueAt(t), 0),
                      formatPercent(out.rackSoc.valueAt(t), 1)});
    }
    table.print(std::cout);

    std::cout << "\n== outcome ==\n";
    if (out.phaseTwoStartSec >= 0.0)
        std::cout << "Phase II began " << formatFixed(
                         out.phaseTwoStartSec, 0)
                  << " s in; " << out.spikesLaunched
                  << " hidden spikes launched\n";
    std::cout << "effective attacks at the victim rack: "
              << out.rack.effectiveAttacks() << "\n"
              << "survival time: " << formatFixed(out.survivalSec, 0)
              << " s (window " << formatFixed(sc.durationSec, 0)
              << " s)\n";

    // Price the incident: a tripped rack needs investigation and
    // remediation (>= 2 h for 75% of surveyed facilities).
    core::OutageCostModel cost;
    if (out.survivalSec < sc.durationSec) {
        const double loss = cost.expectedIncidentLossUsd(5.0);
        std::cout << "expected incident loss (5 min outage + "
                     "remediation): $"
                  << formatFixed(loss, 0) << "\n";
    } else {
        std::cout << "the cluster rode out the attack window\n";
    }
    return 0;
}
