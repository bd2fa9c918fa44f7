/**
 * @file
 * End-to-end CLI observability test: runs a short padsim campaign
 * through the real binary (path injected as PADSIM_BIN at compile
 * time) with --trace / --stats-json / --manifest, then validates
 * that every artifact is well-formed JSON carrying the required
 * fields. This is the ctest-level guarantee that the flags survive
 * refactors of the binary's plumbing. Removed inputs are checked
 * against padsim and padd (PADD_BIN) alike.
 */

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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

int
runPadsim(const std::string &args)
{
    const std::string cmd =
        std::string(PADSIM_BIN) + " " + args + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
}

/** Run @p bin with stderr captured in @p errPath; its exit status. */
int
runStatus(const char *bin, const std::string &args,
          const std::string &errPath)
{
    const std::string cmd =
        std::string(bin) + " " + args + " > /dev/null 2> " + errPath;
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** Run padsim with stderr captured in @p errPath; its exit status. */
int
runPadsimStatus(const std::string &args, const std::string &errPath)
{
    return runStatus(PADSIM_BIN, args, errPath);
}

// Every test works in its own temporary directory so the cases stay
// independent when ctest runs them concurrently.
class CliTraceTest : public ::testing::Test
{
  protected:
    void SetUp() override { ASSERT_TRUE(tmp_.enter()); }

    test::ScopedTempDir tmp_;
};

TEST_F(CliTraceTest, ChromeTraceStatsAndManifest)
{
    ASSERT_EQ(runPadsim("--scheme PAD --duration 30 --quiet"
                        " --trace cli_a_trace.json --trace-format chrome"
                        " --stats-json cli_a_stats.json"
                        " --manifest cli_a_manifest.json"),
              0);

    // Chrome trace: one well-formed document with a traceEvents
    // array whose entries carry name/ph/ts.
    std::string error;
    const auto trace = parseJson(slurp("cli_a_trace.json"), &error);
    ASSERT_TRUE(trace.has_value()) << error;
    const JsonValue *events = trace->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->array.size(), 0u);
    for (const JsonValue &e : events->array) {
        EXPECT_TRUE(e.contains("name"));
        EXPECT_TRUE(e.contains("ph"));
        const std::string &ph = e.find("ph")->str;
        if (ph != "M") {
            EXPECT_TRUE(e.contains("ts"));
            EXPECT_TRUE(e.contains("pid"));
            EXPECT_TRUE(e.contains("tid"));
        }
    }

    // Stats export: a JSON object with the attack scalars padsim
    // always registers.
    const auto stats = parseJson(slurp("cli_a_stats.json"), &error);
    ASSERT_TRUE(stats.has_value()) << error;
    const JsonValue *scalars = stats->find("scalars");
    ASSERT_NE(scalars, nullptr);
    EXPECT_TRUE(scalars->contains("attack.survival_sec"));
    EXPECT_TRUE(scalars->contains("attack.throughput"));
    ASSERT_NE(stats->find("counters"), nullptr);
    EXPECT_TRUE(
        stats->find("counters")->contains("attack.spikes_launched"));

    // Manifest: tool/seed/version/config plus pointers to the other
    // artifacts and the inline stats copy.
    const auto manifest = parseJson(slurp("cli_a_manifest.json"), &error);
    ASSERT_TRUE(manifest.has_value()) << error;
    EXPECT_EQ(manifest->find("tool")->str, "padsim");
    EXPECT_TRUE(manifest->contains("version"));
    EXPECT_TRUE(manifest->contains("seed"));
    EXPECT_EQ(manifest->find("config")->find("scheme")->str, "PAD");
    const JsonValue *artifacts = manifest->find("artifacts");
    ASSERT_NE(artifacts, nullptr);
    EXPECT_EQ(artifacts->find("trace")->str, "cli_a_trace.json");
    EXPECT_EQ(artifacts->find("trace_format")->str, "chrome");
    EXPECT_EQ(artifacts->find("stats_json")->str, "cli_a_stats.json");
    EXPECT_TRUE(manifest->find("stats")->contains("scalars"));
    EXPECT_GE(manifest->find("wall_seconds")->number, 0.0);
}

TEST_F(CliTraceTest, JsonlTraceLinesParse)
{
    ASSERT_EQ(runPadsim("--scheme uDEB --duration 30 --quiet"
                        " --trace cli_b_trace.jsonl"),
              0);
    std::ifstream in("cli_b_trace.jsonl");
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        std::string error;
        const auto doc = parseJson(line, &error);
        ASSERT_TRUE(doc.has_value()) << error << ": " << line;
        EXPECT_TRUE(doc->contains("ts"));
        EXPECT_TRUE(doc->contains("component"));
        EXPECT_TRUE(doc->contains("name"));
        ++lines;
    }
    EXPECT_GT(lines, 0);
}

TEST_F(CliTraceTest, RejectsUnknownTraceFormat)
{
    EXPECT_NE(runPadsim("--scheme PAD --duration 30"
                        " --trace cli_c_trace.json --trace-format xml"),
              0);
}

TEST_F(CliTraceTest, TracingDoesNotChangeTableOutput)
{
    const std::string base = std::string(PADSIM_BIN) +
                             " --scheme PAD --duration 30 --quiet";
    ASSERT_EQ(std::system((base + " > cli_out_a.txt 2>&1").c_str()), 0);
    ASSERT_EQ(std::system((base + " --trace cli_d_trace.json"
                                  " --trace-format chrome"
                                  " > cli_out_b.txt 2>&1")
                              .c_str()),
              0);
    EXPECT_EQ(slurp("cli_out_a.txt"), slurp("cli_out_b.txt"));
}

TEST_F(CliTraceTest, DefaultBackendIsSoaInTableAndManifest)
{
    // The one engine is named in the summary table and in the
    // manifest's config, as it was when there was a choice.
    const std::string base = std::string(PADSIM_BIN) +
                             " --scheme PAD --duration 30 --quiet";
    ASSERT_EQ(std::system((base + " --manifest cli_e_soa.json"
                                  " > cli_e_soa.txt 2>&1")
                              .c_str()),
              0);
    const auto tableBackend = [](const std::string &text) {
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            std::istringstream words(line);
            std::string first, second;
            words >> first >> second;
            if (first == "backend")
                return second;
        }
        return std::string("(no backend row)");
    };
    EXPECT_EQ(tableBackend(slurp("cli_e_soa.txt")), "soa");

    std::string error;
    const auto soa = parseJson(slurp("cli_e_soa.json"), &error);
    ASSERT_TRUE(soa.has_value()) << error;
    EXPECT_EQ(soa->find("config")->find("backend")->str, "soa");
}

TEST_F(CliTraceTest, RemovedBackendInputsExitWithUsage)
{
    // There is one engine: the --backend flag (any value), the
    // backend config key and the --profile alias are gone. Each
    // spelling takes the binary's ordinary usage path and exits 2.
    for (const char *name : {"baseline", "optimized", "soa"}) {
        EXPECT_EQ(runPadsimStatus(std::string("--backend ") + name +
                                      " --quiet",
                                  "err_a.txt"),
                  2)
            << name;
        const std::string flagErr = slurp("err_a.txt");
        EXPECT_EQ(flagErr.rfind("usage: padsim", 0), 0u) << flagErr;
    }

    EXPECT_EQ(runPadsimStatus("--profile optimized --quiet", "err_b.txt"),
              2);
    const std::string profileErr = slurp("err_b.txt");
    EXPECT_EQ(profileErr.rfind("usage: padsim", 0), 0u) << profileErr;

    for (const char *name : {"baseline", "optimized"}) {
        {
            std::ofstream cfg("backend.cfg");
            cfg << "backend = " << name << "\n";
        }
        EXPECT_EQ(runPadsimStatus("--config backend.cfg --quiet",
                                  "err_c.txt"),
                  2)
            << name;
        EXPECT_EQ(slurp("err_c.txt").rfind(
                      "padsim: unknown config key: backend\n"
                      "usage: padsim",
                      0),
                  0u)
            << slurp("err_c.txt");
    }

    EXPECT_EQ(runStatus(PADD_BIN, "--backend soa --duration 1",
                        "err_d.txt"),
              2);
    const std::string paddErr = slurp("err_d.txt");
    EXPECT_EQ(paddErr.rfind("usage: padd", 0), 0u) << paddErr;
}

TEST_F(CliTraceTest, HostileBudgetAndPercentileExitWithUsage)
{
    // A budget fraction that is zero, negative, non-finite or not a
    // number at all (atof reads "abc" as 0), and a victim percentile
    // outside [0, 100], are rejected at the command line with a
    // message and exit 2 -- never an engine assertion.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"--budget 0", "budget"},          {"--budget -1", "budget"},
        {"--budget abc", "budget"},        {"--budget nan", "budget"},
        {"--budget inf", "budget"},        {"--victim-pct 150", "victim"},
        {"--victim-pct -1", "victim"},     {"--victim-pct nan", "victim"},
    };
    for (const auto &[args, what] : cases) {
        EXPECT_EQ(runPadsimStatus(args + " --duration 5 --quiet",
                                  "err_flag.txt"),
                  2)
            << args;
        const std::string err = slurp("err_flag.txt");
        EXPECT_EQ(err.rfind("padsim: " + what, 0), 0u) << args << ": " << err;
        EXPECT_NE(err.find("usage: padsim"), std::string::npos) << err;
    }
    // The same values through the config file's keys (the kv parser
    // already rejects a non-numeric value on its own).
    for (const std::string line : {"budget = 0", "budget = -1",
                                   "budget = nan", "victim_pct = 150",
                                   "victim_pct = -1"}) {
        {
            std::ofstream cfg("hostile.cfg");
            cfg << line << "\n";
        }
        EXPECT_EQ(runPadsimStatus("--config hostile.cfg --duration 5 --quiet",
                                  "err_cfg.txt"),
                  2)
            << line;
        const std::string err = slurp("err_cfg.txt");
        EXPECT_EQ(err.rfind("padsim: ", 0), 0u) << line << ": " << err;
        EXPECT_NE(err.find("usage: padsim"), std::string::npos) << err;
    }
}

} // namespace
