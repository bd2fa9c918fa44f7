/**
 * @file
 * End-to-end forensics test: runs the real padsim binary with
 * tracing, telemetry and the detector response enabled, then runs
 * the real padtrace binary over the produced JSONL and checks that
 * the reconstructed incident agrees EXACTLY with the simulator's own
 * stats export — survival time, time-to-detection and first policy
 * escalation are recomputed from event timestamps and must match the
 * registry values bit-for-bit. Also covers padtrace's tolerance of
 * corrupt/truncated traces and the --prom exposition grammar.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "scoped_temp_dir.h"
#include "telemetry/prom.h"
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
runCmd(const std::string &bin, const std::string &args)
{
    const std::string cmd = bin + " " + args + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
}

/** runCmd() but with stderr captured into @p errPath. */
int
runCmdErr(const std::string &bin, const std::string &args,
          const std::string &errPath)
{
    const std::string cmd =
        bin + " " + args + " > /dev/null 2> " + errPath;
    return std::system(cmd.c_str());
}

double
scalarOf(const JsonValue &stats, const std::string &name)
{
    // Stats JSON maps each dotted name directly onto its number.
    const JsonValue *scalars = stats.find("scalars");
    const JsonValue *entry = scalars ? scalars->find(name) : nullptr;
    return entry ? entry->number : -1e9;
}

/**
 * The fixture runs one traced 22-rack attack through padsim once per
 * test process and shares the artifacts across that process's tests
 * (SetUpTestSuite keeps the suite fast). ctest runs every TEST in
 * its own process, concurrently under -j, so each process works in
 * its own temporary directory.
 */
class PadtraceForensics : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        dir_ = std::make_unique<test::ScopedTempDir>();
        if (!dir_->enter())
            return;
        ran_ = runCmd(PADSIM_BIN,
                      "--scheme PAD --racks 22 --duration 120"
                      " --detector --quiet"
                      " --trace ptr_run.jsonl"
                      " --stats-json ptr_stats.json"
                      " --prom ptr_metrics.prom");
    }

    static void TearDownTestSuite() { dir_.reset(); }

    static inline std::unique_ptr<test::ScopedTempDir> dir_;
    static inline int ran_ = -1;
};

} // namespace

TEST_F(PadtraceForensics, ReportAgreesExactlyWithSimulatorStats)
{
    ASSERT_EQ(ran_, 0);
    ASSERT_EQ(runCmd(PADTRACE_BIN,
                     "report --format json ptr_run.jsonl"
                     " --out ptr_report.json"),
              0);

    std::string error;
    const auto stats = parseJson(slurp("ptr_stats.json"), &error);
    ASSERT_TRUE(stats.has_value()) << error;
    const auto report = parseJson(slurp("ptr_report.json"), &error);
    ASSERT_TRUE(report.has_value()) << error;

    // Survival: padtrace recomputes it from the first attack.overload
    // event timestamp (or takes the recorded full-window value when
    // nothing overloaded); either way it must equal the registry
    // scalar exactly.
    const JsonValue *window = report->find("window");
    ASSERT_NE(window, nullptr);
    EXPECT_TRUE(window->find("found")->boolean);
    EXPECT_EQ(window->find("survival_sec")->number,
              scalarOf(*stats, "attack.survival_sec"));

    // Time-to-detection: first detector.anomaly event timestamp in
    // absolute sim seconds, against detector.first_flag_sec.
    const JsonValue *defender = report->find("defender");
    ASSERT_NE(defender, nullptr);
    EXPECT_EQ(defender->find("time_to_detection_sec")->number,
              scalarOf(*stats, "detector.first_flag_sec"));

    // First escalation out of L1, against policy.first_escalation_sec
    // (-1 on both sides when the policy never escalated).
    EXPECT_EQ(defender->find("first_escalation_sec")->number,
              scalarOf(*stats, "policy.first_escalation_sec"));

    // Spike count recorded in the attack.window span must match the
    // attack.spikes_launched counter.
    const JsonValue *attacker = report->find("attacker");
    ASSERT_NE(attacker, nullptr);
    const JsonValue *counters = stats->find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *spikes =
        counters->find("attack.spikes_launched");
    ASSERT_NE(spikes, nullptr);
    EXPECT_EQ(attacker->find("spikes_recorded")->number,
              spikes->number);

    // The attacker's ground-truth phase timeline came through.
    EXPECT_GT(attacker->find("phases")->array.size(), 0u);
    EXPECT_EQ(report->find("skipped")->number, 0.0);
}

TEST_F(PadtraceForensics, PromExpositionPassesGrammarCheck)
{
    ASSERT_EQ(ran_, 0);
    const std::string text = slurp("ptr_metrics.prom");
    ASSERT_FALSE(text.empty());
    std::string error;
    EXPECT_TRUE(telemetry::validatePromExposition(text, &error))
        << error;
    // Both stats-derived and telemetry-derived metrics are present.
    EXPECT_NE(text.find("pad_attack_survival_sec"),
              std::string::npos);
    EXPECT_NE(text.find("pad_series_last{series=\"pdu.power\"}"),
              std::string::npos);
}

TEST_F(PadtraceForensics, CorruptTrailingLinesAreSkippedNotFatal)
{
    ASSERT_EQ(ran_, 0);
    // Clean-run baseline.
    ASSERT_EQ(runCmd(PADTRACE_BIN,
                     "summary --format json ptr_run.jsonl"
                     " --out ptr_clean_summary.json"),
              0);

    // Corrupt copy: truncate the final line mid-JSON and append a
    // non-record object plus binary garbage.
    const std::string full = slurp("ptr_run.jsonl");
    ASSERT_GT(full.size(), 100u);
    {
        std::ofstream out("ptr_corrupt.jsonl",
                          std::ios::binary | std::ios::trunc);
        out << full.substr(0, full.size() - 40);
        out << "\n{\"not\":\"a record\"}\n\x01\x02 broken {{{\n";
    }
    ASSERT_EQ(runCmd(PADTRACE_BIN,
                     "summary --format json ptr_corrupt.jsonl"
                     " --out ptr_corrupt_summary.json"),
              0);

    std::string error;
    const auto clean =
        parseJson(slurp("ptr_clean_summary.json"), &error);
    ASSERT_TRUE(clean.has_value()) << error;
    const auto corrupt =
        parseJson(slurp("ptr_corrupt_summary.json"), &error);
    ASSERT_TRUE(corrupt.has_value()) << error;

    // The skipped tally is also echoed on stderr (one line), so it
    // is visible even when the report body goes to --out.
    ASSERT_EQ(runCmdErr(PADTRACE_BIN,
                        "summary --format json ptr_corrupt.jsonl"
                        " --out ptr_corrupt_summary2.json",
                        "ptr_corrupt_err.txt"),
              0);
    const std::string stderrText = slurp("ptr_corrupt_err.txt");
    EXPECT_NE(stderrText.find("padtrace: skipped"),
              std::string::npos)
        << stderrText;
    EXPECT_NE(stderrText.find("corrupt line"), std::string::npos);

    EXPECT_GE(corrupt->find("skipped")->number, 1.0);
    // The dropped tail doesn't change the incident headline numbers
    // (the attack.window span sits before the corrupted region only
    // if it was not the very last lines — so compare the detection
    // time, which derives from early events).
    EXPECT_EQ(corrupt->find("time_to_detection_sec")->number,
              clean->find("time_to_detection_sec")->number);
}

TEST_F(PadtraceForensics, TimelineAndMarkdownFormatsWork)
{
    ASSERT_EQ(ran_, 0);
    EXPECT_EQ(runCmd(PADTRACE_BIN,
                     "timeline --format csv ptr_run.jsonl"
                     " --out ptr_timeline.csv"),
              0);
    const std::string csv = slurp("ptr_timeline.csv");
    EXPECT_NE(csv.find("t_sec,event,detail"), std::string::npos);
    EXPECT_NE(csv.find("attacker.phase"), std::string::npos);

    EXPECT_EQ(runCmd(PADTRACE_BIN,
                     "report ptr_run.jsonl --out ptr_report.md"),
              0);
    const std::string md = slurp("ptr_report.md");
    EXPECT_NE(md.find("# padtrace incident report"),
              std::string::npos);
    EXPECT_NE(md.find("Attacker forensics"), std::string::npos);
    EXPECT_NE(md.find("DEB depletion"), std::string::npos);
}

TEST(PadtraceCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(WEXITSTATUS(runCmd(PADTRACE_BIN, "")), 2);
    EXPECT_EQ(WEXITSTATUS(runCmd(
                  PADTRACE_BIN, "--format yaml trace.jsonl")),
              2);
    // Missing file is a runtime error (1), not a usage error.
    EXPECT_EQ(WEXITSTATUS(runCmd(PADTRACE_BIN,
                                 "report /does/not/exist.jsonl")),
              1);
    // incidents accepts md/json only, and --html is incidents-only.
    EXPECT_EQ(WEXITSTATUS(runCmd(
                  PADTRACE_BIN, "incidents --format csv x.jsonl")),
              2);
    EXPECT_EQ(WEXITSTATUS(runCmd(
                  PADTRACE_BIN, "report --html x.html x.jsonl")),
              2);
}

TEST(PadtraceCli, MissingTraceIsAOneLineErrorOnStderr)
{
    // Regression (hard error contract): a missing or unreadable
    // input produces exactly one explanatory line on stderr and a
    // nonzero exit — never a stack trace, never silence.
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    ASSERT_EQ(WEXITSTATUS(runCmdErr(PADTRACE_BIN,
                                    "report /does/not/exist.jsonl",
                                    "ptr_missing_err.txt")),
              1);
    const std::string text = slurp("ptr_missing_err.txt");
    EXPECT_EQ(text.rfind("padtrace: ", 0), 0u) << text;
    EXPECT_NE(text.find("/does/not/exist.jsonl"), std::string::npos)
        << text;
    // Exactly one line (one trailing newline, no embedded ones).
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
}

TEST(PadtraceCli, PerfCompareAcceptsDroppedBaselineColumn)
{
    // Older perfbench files carry a "baseline" column that newer
    // ones no longer have; the comparison matches the columns both
    // files share and ignores the rest.
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    {
        std::ofstream old("ptr_old_bench.json");
        old << R"({"schema":"pad-perfbench-v3","quick":false,
            "benchmarks":[{"name":"single_run","unit":"runs_per_sec",
            "higher_is_better":true,
            "baseline":{"value":10.0,"median_sec":0.1,"min_sec":0.1,
                        "mean_sec":0.1,"reps":9},
            "optimized":{"value":20.0,"median_sec":0.05,
                         "min_sec":0.05,"mean_sec":0.05,"reps":9},
            "soa":{"value":40.0,"median_sec":0.025,"min_sec":0.025,
                   "mean_sec":0.025,"reps":9},
            "speedup":2.0,"speedup_soa":2.0}]})";
        std::ofstream cur("ptr_new_bench.json");
        cur << R"({"schema":"pad-perfbench-v3","quick":false,
            "benchmarks":[{"name":"single_run","unit":"runs_per_sec",
            "higher_is_better":true,
            "optimized":{"value":16.0,"median_sec":0.0625,
                         "min_sec":0.0625,"mean_sec":0.0625,"reps":9},
            "soa":{"value":40.0,"median_sec":0.025,"min_sec":0.025,
                   "mean_sec":0.025,"reps":9},
            "speedup_soa":2.5}]})";
    }
    ASSERT_EQ(WEXITSTATUS(runCmd(PADTRACE_BIN,
                                 "perf --compare ptr_old_bench.json"
                                 " ptr_new_bench.json --format json"
                                 " --out ptr_compare.json")),
              0);
    std::string error;
    const auto doc = parseJson(slurp("ptr_compare.json"), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->isArray());
    std::vector<std::string> metrics;
    for (const JsonValue &row : rows->array)
        metrics.push_back(row.find("metric")->str);
    EXPECT_EQ(metrics, (std::vector<std::string>{"single_run/optimized",
                                                 "single_run/soa"}));
    // 20 -> 16 runs/s is 20% worse: flagged, but advisory (exit 0).
    EXPECT_TRUE(rows->array[0].find("regressed")->boolean);
    EXPECT_EQ(doc->find("regressions")->number, 1.0);
}

TEST(PadtraceCli, PerfCompareFlagsOnlyMovesBeyondBothIqrs)
{
    // Both rows get 20% worse. fine_tick's move (200 ns) is inside
    // the new file's IQR (250 ns), so it is noise; single_run's move
    // (4 runs/s) exceeds both IQRs (1 and 2), so it is flagged.
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    {
        std::ofstream old("ptr_old_bench.json");
        old << R"({"schema":"pad-perfbench-v3","quick":false,
            "benchmarks":[
            {"name":"fine_tick","unit":"ns_per_tick",
             "higher_is_better":false,
             "soa":{"value":1000.0,"iqr":50.0}},
            {"name":"single_run","unit":"runs_per_sec",
             "higher_is_better":true,
             "soa":{"value":20.0,"iqr":1.0}}]})";
        std::ofstream cur("ptr_new_bench.json");
        cur << R"({"schema":"pad-perfbench-v3","quick":false,
            "benchmarks":[
            {"name":"fine_tick","unit":"ns_per_tick",
             "higher_is_better":false,
             "soa":{"value":1200.0,"iqr":250.0}},
            {"name":"single_run","unit":"runs_per_sec",
             "higher_is_better":true,
             "soa":{"value":16.0,"iqr":2.0}}]})";
    }
    ASSERT_EQ(WEXITSTATUS(runCmd(PADTRACE_BIN,
                                 "perf --compare ptr_old_bench.json"
                                 " ptr_new_bench.json --format json"
                                 " --out ptr_compare.json")),
              0);
    std::string error;
    const auto doc = parseJson(slurp("ptr_compare.json"), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *rows = doc->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->array.size(), 2u);
    EXPECT_EQ(rows->array[0].find("metric")->str, "fine_tick/soa");
    EXPECT_EQ(rows->array[0].find("iqr")->number, 250.0);
    EXPECT_FALSE(rows->array[0].find("regressed")->boolean);
    EXPECT_EQ(rows->array[1].find("metric")->str, "single_run/soa");
    EXPECT_TRUE(rows->array[1].find("regressed")->boolean);
    EXPECT_EQ(doc->find("regressions")->number, 1.0);
}

TEST(PadtraceCli, IncidentsSubcommandRendersArtifacts)
{
    // End-to-end: padsim evaluates the shipped default rules online
    // and streams incidents; padtrace re-renders them as a table,
    // JSONL and the standalone HTML dashboard.
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    ASSERT_EQ(runCmd(PADSIM_BIN,
                     "--scheme PAD --racks 22 --duration 120"
                     " --detector --quiet"
                     " --alerts " PAD_RULES_DIR "/pad_default.json"
                     " --incidents ptr_incidents.jsonl"),
              0);

    ASSERT_EQ(runCmd(PADTRACE_BIN,
                     "incidents ptr_incidents.jsonl"
                     " --out ptr_incidents.md"
                     " --html ptr_incidents.html"),
              0);
    const std::string md = slurp("ptr_incidents.md");
    EXPECT_NE(md.find("# padtrace incidents"), std::string::npos);
    EXPECT_NE(md.find("incident(s)"), std::string::npos);

    const std::string html = slurp("ptr_incidents.html");
    EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
    EXPECT_NE(html.find("</html>"), std::string::npos);
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);

    // JSON mode re-emits the JSONL stream byte-identically.
    ASSERT_EQ(runCmd(PADTRACE_BIN,
                     "incidents --format json ptr_incidents.jsonl"
                     " --out ptr_incidents_back.jsonl"),
              0);
    EXPECT_EQ(slurp("ptr_incidents_back.jsonl"),
              slurp("ptr_incidents.jsonl"));

    // A missing incidents file is the same hard-error contract.
    EXPECT_EQ(WEXITSTATUS(runCmd(PADTRACE_BIN,
                                 "incidents /does/not/exist.jsonl")),
              1);
}
