/**
 * @file
 * Attack-window types shared by the cluster engine and its callers:
 * the scenario an attack runs under, its outcome, and the victim-rack
 * ranking benches use to attack the same rack across schemes. The
 * engine itself is engine::ClusterEngine (engine/cluster_engine.h).
 */

#ifndef PAD_CORE_DATACENTER_H
#define PAD_CORE_DATACENTER_H

#include <utility>
#include <vector>

#include "attack/attack_stats.h"
#include "core/config.h"
#include "sim/time_series.h"
#include "trace/workload.h"
#include "util/types.h"

namespace pad::core {

/** Outcome of one fine-grained attack window. */
struct AttackOutcome {
    /** Overload statistics at the victim rack. */
    attack::AttackStats rack;
    /** Overload statistics at the cluster/PDU level. */
    attack::AttackStats cluster;
    /** Survival time: attack start to first overload, seconds. */
    double survivalSec = 0.0;
    /** Normalized throughput of benign work over the window. */
    double throughput = 1.0;
    /** Hidden spikes launched by the attacker in Phase II. */
    int spikesLaunched = 0;
    /** Absolute tick windows of each launched spike. */
    std::vector<std::pair<Tick, Tick>> spikeWindows;
    /** Victim-rack total power over the window, 1 sample/control. */
    sim::TimeSeries rackPower{"rack_power"};
    /** Victim-rack utility-side draw after shaving. */
    sim::TimeSeries rackDraw{"rack_draw"};
    /** Victim-rack DEB state of charge. */
    sim::TimeSeries rackSoc{"rack_soc"};
    /** Victim-rack µDEB state of charge (all 1.0 without µDEB). */
    sim::TimeSeries udebSoc{"udeb_soc"};
    /** Security level over the window. */
    sim::TimeSeries level{"level"};
    /** Peak fraction of servers shed at any control period. */
    double maxShedRatio = 0.0;
    /** Attacker phase transitions: seconds into window. */
    double phaseTwoStartSec = -1.0;
};

/** How the adversary's VMs land on a victim rack. */
enum class TargetPolicy {
    /** Attacker co-located onto a given rack (targetRack index). */
    Fixed,
    /**
     * Sophisticated adversary: the rack whose DEB currently holds
     * the least energy (identified through Phase-I style probing).
     */
    MostVulnerable,
    /** Median-SOC rack: a typical co-location outcome. */
    Median,
};

/** Parameters of one attack window. */
struct AttackScenario {
    /** Victim selection policy. */
    TargetPolicy targetPolicy = TargetPolicy::Median;
    /** Victim rack index when targetPolicy == Fixed. */
    int targetRack = -1;
    /**
     * Additional racks the attacker also holds nodes in ("divide and
     * conquer", paper §I): the same malicious load runs on the first
     * controlledNodes servers of each listed rack.
     */
    std::vector<int> extraVictimRacks;
    /**
     * Number of servers the attacker controls in each victim rack;
     * filled from the attacker's controlledNodes by runAttack().
     */
    int maliciousNodes = 0;
    /** Window length, seconds. */
    double durationSec = 1500.0;
    /**
     * Attack duty cycle in [0,1]: fraction of each duty period the
     * attacker is active (Fig. 16-A "attack rate"); 1 = continuous.
     */
    double dutyCycle = 1.0;
    /** Duty period, seconds. */
    double dutyPeriodSec = 120.0;
};

/**
 * Pick a victim rack by workload intensity: racks are ranked by
 * their mean demanded power over [from, to) and the rack at the
 * given percentile (0 = coolest, 100 = hottest) is returned. Benches
 * use this to attack the *same* rack across schemes so survival
 * times are comparable.
 */
int rackByLoadPercentile(const trace::Workload &workload,
                         const DataCenterConfig &config, Tick from,
                         Tick to, double percentile);

} // namespace pad::core

#endif // PAD_CORE_DATACENTER_H
