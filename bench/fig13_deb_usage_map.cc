/**
 * @file
 * Reproduces paper Fig. 13: "A comparison of DEB usage in
 * conventional datacenters and datacenters protected by PAD" — the
 * rack x time battery SOC map over one day, plus the associated
 * survival-time improvement (paper: 1.7x after optimization).
 *
 * Output: an ASCII SOC heat map per scheme ('#' full ... '.' empty),
 * per-rack minimum SOC, a vulnerability count (rack-steps below 30%
 * SOC), and survival times of an attack launched at the peak hour.
 */

#include <iostream>

#include "bench_common.h"
#include "util/table.h"

using namespace pad;

namespace {

char
socGlyph(double soc)
{
    // '#' >= 0.8, '+' >= 0.6, '-' >= 0.4, ':' >= 0.2, '.' < 0.2
    if (soc >= 0.8)
        return '#';
    if (soc >= 0.6)
        return '+';
    if (soc >= 0.4)
        return '-';
    if (soc >= 0.2)
        return ':';
    return '.';
}

struct MapResult {
    std::vector<std::vector<double>> history;
    double minSoc = 1.0;
    int vulnerableRackSteps = 0;
    double survivalSec = 0.0;
};

MapResult
runScheme(core::SchemeKind scheme, const bench::ClusterWorkload &cw)
{
    core::DataCenterConfig cfg = bench::clusterConfig(scheme);
    // Power-constrained PDU so the sharing scheme's balanced (and
    // shallow) pool usage is visible next to the conventional
    // design's deep per-rack strips.
    cfg.clusterBudgetFraction = 0.70;
    engine::ClusterEngine dc(cfg, cw.workload.get());
    dc.setRecordHistory(true);
    dc.runCoarseUntil(kTicksPerDay + 13 * kTicksPerHour);

    MapResult out;
    out.history = dc.socHistory();
    for (const auto &row : out.history) {
        for (double s : row) {
            out.minSoc = std::min(out.minSoc, s);
            out.vulnerableRackSteps += s < 0.30;
        }
    }

    attack::AttackerConfig ac;
    ac.controlledNodes = 4;
    attack::TwoPhaseAttacker attacker(ac);
    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::MostVulnerable;
    sc.durationSec = 1500.0;
    out.survivalSec = dc.runAttack(attacker, sc).survivalSec;
    return out;
}

void
printMap(const std::string &title, const MapResult &r)
{
    std::cout << title << " (rows: racks, cols: hours; "
              << "'#'>=80% '+'>=60% '-'>=40% ':'>=20% '.'<20%)\n";
    if (r.history.empty())
        return;
    const std::size_t racks = r.history.front().size();
    const std::size_t stepsPerHour =
        static_cast<std::size_t>(kTicksPerHour / (5 * kTicksPerMinute));
    for (std::size_t rack = 0; rack < racks; ++rack) {
        std::cout << (rack < 10 ? " r" : "r") << rack << " ";
        for (std::size_t step = 0; step < r.history.size();
             step += stepsPerHour) {
            // Glyph shows the worst SOC within the hour so that
            // short discharge dips stay visible.
            double low = 1.0;
            for (std::size_t k = step;
                 k < std::min(step + stepsPerHour, r.history.size());
                 ++k)
                low = std::min(low, r.history[k][rack]);
            std::cout << socGlyph(low);
        }
        std::cout << '\n';
    }
    std::cout << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::parseBenchArgs(argc, argv);
    const bench::TraceSession trace(opts);
    std::cout << "=== Fig. 13: DEB usage map, conventional vs PAD "
                 "(1.5 days) ===\n\n";
    const auto cw = bench::makeClusterWorkload(3.0);

    const auto conv = runScheme(core::SchemeKind::PS, cw);
    const auto pad = runScheme(core::SchemeKind::Pad, cw);

    printMap("conventional (per-rack peak shaving)", conv);
    printMap("PAD optimized (vDEB balancing)", pad);

    TextTable table("summary");
    table.setHeader({"scheme", "min SOC", "vulnerable rack-steps",
                     "survival at peak (s)"});
    table.addRow("conventional",
                 {conv.minSoc, static_cast<double>(
                                   conv.vulnerableRackSteps),
                  conv.survivalSec});
    table.addRow("PAD", {pad.minSoc,
                         static_cast<double>(pad.vulnerableRackSteps),
                         pad.survivalSec});
    table.print(std::cout);

    std::cout << "\nsurvival improvement: "
              << formatFixed(pad.survivalSec /
                                 std::max(conv.survivalSec, 1e-9),
                             2)
              << "x  (paper: 1.7x after PAD optimization; uneven "
                 "usage may still exist but no rack differs "
                 "significantly at any timestamp)\n";
    return 0;
}
