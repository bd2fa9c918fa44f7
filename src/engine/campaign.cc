#include "engine/campaign.h"

#include <algorithm>

#include "util/logging.h"

namespace pad::engine {

CampaignDriver::CampaignDriver(ClusterEngine &dc,
                               std::vector<CampaignAttack> attacks)
    : dc_(dc), attacks_(std::move(attacks))
{
    std::stable_sort(attacks_.begin(), attacks_.end(),
                     [](const CampaignAttack &a,
                        const CampaignAttack &b) {
                         return a.startAt < b.startAt;
                     });
}

CampaignReport
CampaignDriver::run(Tick until)
{
    CampaignReport report;
    const double demandBefore = dc_.perf().demandedWork();
    const double execBefore = dc_.perf().executedWork();

    // Strikes run in start order (stable for equal ticks); between
    // them the data center runs normal coarse operation. A strike
    // whose start an earlier strike's window already passed runs as
    // soon as that window ends.
    const Tick runStart = dc_.now();
    for (const CampaignAttack &strike : attacks_) {
        if (strike.startAt < runStart || strike.startAt >= until)
            continue;
        dc_.runCoarseUntil(strike.startAt);
        attack::TwoPhaseAttacker attacker(strike.attacker);
        const core::AttackOutcome out =
            dc_.runAttack(attacker, strike.scenario);
        CampaignStrike record;
        record.startedAt = strike.startAt;
        record.survivalSec = out.survivalSec;
        record.effectiveAttacks = out.rack.effectiveAttacks();
        record.throughput = out.throughput;
        record.overloaded = out.survivalSec < strike.scenario.durationSec;
        report.successfulStrikes += record.overloaded;
        report.strikes.push_back(record);
    }
    dc_.runCoarseUntil(until);

    const double demanded = dc_.perf().demandedWork() - demandBefore;
    const double executed = dc_.perf().executedWork() - execBefore;
    report.overallThroughput =
        demanded > 0.0 ? executed / demanded : 1.0;
    return report;
}

} // namespace pad::engine
