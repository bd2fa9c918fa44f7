/**
 * @file
 * Bench CLI plumbing tests: the manifest names the one engine, the
 * removed --backend flag takes the usage path, and runSweep's
 * --stats-json is exactly what sweeping the grid directly produces.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.h"
#include "scoped_temp_dir.h"
#include "util/json.h"

using namespace pad;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A one-job PS attack grid on a 2-day workload. */
std::vector<runner::Experiment>
attackGrid(const runner::ClusterWorkload &cw)
{
    runner::ClusterAttackSpec spec;
    spec.scheme = core::SchemeKind::PS;
    spec.durationSec = 120.0;
    return {runner::Experiment::clusterAttack(spec, cw)};
}

TEST(BenchOptions, DefaultBackendIsSoa)
{
    // There is one engine: a bench's manifest names it, and asking
    // for one by name is an unknown flag.
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(2.0);
    bench::BenchOptions opts;
    opts.jobs = 1;
    opts.manifest = tmp.path("manifest.json");
    bench::runSweep("bench_common_test", opts, attackGrid(cw));
    std::string error;
    const auto manifest = parseJson(slurp(opts.manifest), &error);
    ASSERT_TRUE(manifest.has_value()) << error;
    EXPECT_EQ(manifest->find("config")->find("backend")->str, "soa");

    char tool[] = "bench";
    char flag[] = "--backend";
    char name[] = "soa";
    char *args[] = {tool, flag, name};
    EXPECT_EXIT(bench::parseBenchArgs(3, args),
                ::testing::ExitedWithCode(2), "usage: bench");
}

TEST(BenchSweep, StatsJsonMatchesADirectSweep)
{
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const runner::ClusterWorkload cw = runner::makeClusterWorkload(2.0);
    const std::vector<runner::Experiment> grid = attackGrid(cw);

    bench::BenchOptions opts;
    opts.jobs = 1;
    opts.statsJson = tmp.path("stats.json");
    bench::runSweep("bench_common_test", opts, grid);

    const runner::SweepReport report =
        runner::SweepRunner(runner::SweepRunner::Options{1})
            .runWithReport(grid);
    std::ostringstream expected;
    report.stats.dumpJson(expected);
    expected << "\n";
    EXPECT_EQ(slurp(opts.statsJson), expected.str());
}

} // namespace
