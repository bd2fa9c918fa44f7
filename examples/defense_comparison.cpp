/**
 * @file
 * Compares all six power-management schemes of paper Table III under
 * one standardized two-phase attack, reporting the security and
 * performance dimensions the paper evaluates: survival time,
 * effective attacks, benign-work throughput, peak shedding ratio,
 * and battery wear inflicted during the attack window.
 */

#include <iostream>

#include "attack/attacker.h"
#include "attack/virus_trace.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/table.h"

using namespace pad;

namespace {

struct Row {
    double survival;
    int effective;
    double throughput;
    double maxShed;
};

Row
evaluate(core::SchemeKind scheme, const trace::Workload &workload)
{
    core::DataCenterConfig cfg;
    cfg.scheme = scheme;
    cfg.clusterBudgetFraction = 0.70;
    cfg.deb = core::defaultDebConfig(cfg.rackNameplate());
    engine::ClusterEngine dc(cfg, &workload);
    dc.runCoarseUntil(kTicksPerDay + 11 * kTicksPerHour);

    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    ac.kind = attack::VirusKind::CpuIntensive;
    ac.train = attack::spikeTrainFor(attack::AttackStyle::Dense,
                                     ac.kind);
    ac.prepareSec = 60.0;
    ac.maxDrainSec = 600.0;
    attack::TwoPhaseAttacker attacker(ac);

    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::Fixed;
    sc.targetRack = core::rackByLoadPercentile(
        workload, cfg, dc.now(), dc.now() + kTicksPerHour, 90.0);
    for (double pct : {85.0, 80.0, 75.0, 70.0, 65.0, 60.0, 55.0}) {
        const int extra = core::rackByLoadPercentile(
            workload, cfg, dc.now(), dc.now() + kTicksPerHour, pct);
        if (extra != sc.targetRack)
            sc.extraVictimRacks.push_back(extra);
    }
    sc.durationSec = 1500.0;

    const auto out = dc.runAttack(attacker, sc);
    return Row{out.survivalSec, out.rack.effectiveAttacks(),
               out.throughput, out.maxShedRatio};
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
    trace::Workload workload(events, tc.machines,
                             static_cast<Tick>(tc.days * kTicksPerDay));

    std::cout << "dense CPU-virus attack on 8 racks x 4 nodes, "
                 "power-constrained cluster (PDU at 70% nameplate)\n\n";

    TextTable table("scheme comparison (paper Table III)");
    table.setHeader({"scheme", "survival (s)", "effective attacks",
                     "throughput", "max shed"});
    for (core::SchemeKind scheme : core::kAllSchemes) {
        const Row row = evaluate(scheme, workload);
        table.addRow({core::schemeName(scheme),
                      formatFixed(row.survival, 0),
                      std::to_string(row.effective),
                      formatFixed(row.throughput, 3),
                      formatPercent(row.maxShed, 1)});
    }
    table.print(std::cout);

    std::cout << "\nreading guide: Conv has no defense and dies "
                 "immediately; PS/PSPC last until the victim DEBs "
                 "drain; uDEB also absorbs hidden spikes; vDEB pools "
                 "every cabinet under the PDU; PAD adds the Fig. 9 "
                 "policy with Level-3 shedding on top.\n";
    return 0;
}
