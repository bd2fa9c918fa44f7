/**
 * @file
 * Attack-campaign driver: orchestrates a timeline of two-phase
 * attacks against one data center.
 *
 * The paper's adversary does not strike once: Phase I itself is a
 * repeated learning process and a determined attacker retries at
 * different hours ("wait for the best time to attack", §III-A). The
 * campaign driver runs the strikes in start order with normal coarse
 * operation between them, and reports per-attack outcomes plus the
 * day's aggregate damage.
 */

#ifndef PAD_ENGINE_CAMPAIGN_H
#define PAD_ENGINE_CAMPAIGN_H

#include <vector>

#include "attack/attacker.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"

namespace pad::engine {

/** One scheduled strike in a campaign. */
struct CampaignAttack {
    /** Absolute tick the attack begins (aligned down to a slot). */
    Tick startAt = 0;
    /** Adversary configuration for this strike. */
    attack::AttackerConfig attacker;
    /** Scenario (victim selection, duration, duty cycle). */
    core::AttackScenario scenario;
};

/** Outcome of one campaign strike. */
struct CampaignStrike {
    Tick startedAt = 0;
    double survivalSec = 0.0;
    int effectiveAttacks = 0;
    double throughput = 1.0;
    bool overloaded = false;
};

/** Aggregate campaign results. */
struct CampaignReport {
    std::vector<CampaignStrike> strikes;
    /** Strikes that produced at least one overload. */
    int successfulStrikes = 0;
    /** Benign throughput across the whole campaign horizon. */
    double overallThroughput = 1.0;
};

/**
 * Runs a timeline of attacks against a ClusterEngine.
 */
class CampaignDriver
{
  public:
    /**
     * @param dc      the data center under attack (state persists
     *                across strikes — drained batteries stay drained
     *                until recharged)
     * @param attacks strikes, any order; sorted internally
     */
    CampaignDriver(ClusterEngine &dc, std::vector<CampaignAttack> attacks);

    /**
     * Run normal operation and the scheduled strikes until @p until.
     * Strikes scheduled past the horizon are skipped.
     *
     * Ownership and lifetime: the driver borrows the engine passed
     * to the constructor and mutates it in place — battery state,
     * detector counters and telemetry reflect the campaign after
     * run() returns, and the caller remains the owner. The attack
     * list is copied at construction; later changes to the caller's
     * vector have no effect. run() may be called once per driver: it
     * drives the engine forward and never rewinds time. Call with a
     * larger @p until on a fresh driver to continue a campaign.
     */
    CampaignReport run(Tick until);

  private:
    ClusterEngine &dc_;
    std::vector<CampaignAttack> attacks_;
};

} // namespace pad::engine

#endif // PAD_ENGINE_CAMPAIGN_H
