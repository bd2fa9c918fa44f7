/**
 * @file
 * Bench CLI plumbing tests: the default engine backend, and that
 * runSweep stamps the --backend choice onto every cluster job — the
 * default included — so `--backend optimized` really runs the scalar
 * engine and a bench's --stats-json comes from the engine its
 * manifest names.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "scoped_temp_dir.h"

using namespace pad;
using engine::BackendKind;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(BenchOptions, DefaultBackendIsSoa)
{
    EXPECT_EQ(bench::BenchOptions{}.backend, BackendKind::Soa);
    char tool[] = "bench";
    char *noArgs[] = {tool};
    EXPECT_EQ(bench::parseBenchArgs(1, noArgs).backend, BackendKind::Soa);
    char flag[] = "--backend";
    char name[] = "optimized";
    char *args[] = {tool, flag, name};
    EXPECT_EQ(bench::parseBenchArgs(3, args).backend,
              BackendKind::Optimized);
}

TEST(BenchSweep, BackendFlagSelectsTheEngineThatRuns)
{
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(2.0);
    runner::ClusterAttackSpec spec;
    spec.scheme = core::SchemeKind::PS;
    spec.durationSec = 120.0;
    const std::vector<runner::Experiment> grid = {
        runner::Experiment::clusterAttack(spec, cw)};

    std::string stats[2];
    int i = 0;
    for (const BackendKind kind :
         {BackendKind::Optimized, BackendKind::Soa}) {
        bench::BenchOptions opts;
        opts.jobs = 1;
        opts.backend = kind;
        opts.statsJson = tmp.path(std::string("stats_") +
                                  engine::backendName(kind) + ".json");
        bench::runSweep("bench_common_test", opts, grid);
        stats[i] = slurp(opts.statsJson);

        // The same grid swept directly on that engine.
        std::vector<runner::Experiment> direct = grid;
        for (runner::Experiment &e : direct)
            e.backend = kind;
        const runner::SweepReport report =
            runner::SweepRunner(runner::SweepRunner::Options{1})
                .runWithReport(direct);
        std::ostringstream expected;
        report.stats.dumpJson(expected);
        expected << "\n";
        EXPECT_EQ(stats[i], expected.str()) << engine::backendName(kind);
        ++i;
    }
    // The engines' stats differ, so the comparison above can tell
    // which one ran.
    EXPECT_NE(stats[0], stats[1]);
}

} // namespace
