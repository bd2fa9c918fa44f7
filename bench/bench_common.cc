#include "bench_common.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "alert/html.h"
#include "alert/incident.h"
#include "alert/rule.h"
#include "obs/manifest.h"
#include "obs/trace_sink.h"
#include "telemetry/prom.h"
#include "util/logging.h"

namespace pad::bench {

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--jobs N] [--trace FILE] [--trace-format jsonl|chrome]\n"
        << "       [--stats-json FILE] [--prom FILE] [--manifest FILE]\n"
        << "       [--alerts RULES] [--incidents FILE]\n"
        << "       [--incident-html FILE]\n"
        << "       [--log-level silent|error|warn|info|debug]\n"
        << "  --jobs N  worker threads for the sweep (0 = all cores);\n"
        << "            results are bit-identical for every N\n";
    std::exit(2);
}

} // namespace

BenchOptions
parseBenchArgs(int argc, char **argv)
{
    initLoggingFromEnvironment();
    BenchOptions opts;
    opts.argv.assign(argv, argv + argc);
    auto need = [&](int &i) -> std::string {
        if (++i >= argc)
            usage(argv[0]);
        return argv[i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            opts.jobs = std::atoi(need(i).c_str());
            if (opts.jobs < 0)
                opts.jobs = 0;
        } else if (arg == "--trace") {
            opts.trace = need(i);
        } else if (arg == "--trace-format") {
            opts.traceFormat = need(i);
            if (!obs::traceFormatFromName(opts.traceFormat)) {
                std::cerr << argv[0] << ": unknown trace format: "
                          << opts.traceFormat << "\n";
                usage(argv[0]);
            }
        } else if (arg == "--stats-json") {
            opts.statsJson = need(i);
        } else if (arg == "--prom") {
            opts.prom = need(i);
        } else if (arg == "--manifest") {
            opts.manifest = need(i);
        } else if (arg == "--alerts") {
            opts.alerts = need(i);
        } else if (arg == "--incidents") {
            opts.incidents = need(i);
        } else if (arg == "--incident-html") {
            opts.incidentHtml = need(i);
        } else if (arg == "--log-level") {
            const std::string name = need(i);
            if (const auto level = logLevelFromName(name)) {
                setLogLevel(*level);
            } else {
                std::cerr << argv[0]
                          << ": unknown log level: " << name << "\n";
                usage(argv[0]);
            }
        } else {
            usage(argv[0]);
        }
    }
    if (opts.alerts.empty() &&
        (!opts.incidents.empty() || !opts.incidentHtml.empty())) {
        std::cerr << argv[0]
                  << ": --incidents/--incident-html require --alerts\n";
        usage(argv[0]);
    }
    return opts;
}

runner::SweepReport
runSweep(const std::string &tool, const BenchOptions &opts,
         const std::vector<runner::Experiment> &grid)
{
    std::unique_ptr<obs::FileTraceSink> sink;
    if (!opts.trace.empty()) {
        sink = obs::FileTraceSink::open(
            opts.trace, *obs::traceFormatFromName(opts.traceFormat));
        if (!sink)
            std::exit(1);
    }

    runner::SweepRunner::Options runnerOpts = opts.runnerOptions();
    runnerOpts.trace = sink.get();
    const runner::SweepRunner pool(runnerOpts);

    // --alerts loads the rule file once; every job then evaluates
    // the same shared, read-only RuleSet. A parse error is fatal
    // before any job runs.
    std::shared_ptr<const alert::RuleSet> rules;
    if (!opts.alerts.empty()) {
        std::string error;
        auto loaded = alert::loadRulesFile(opts.alerts, &error);
        if (!loaded) {
            std::cerr << tool << ": " << error << "\n";
            std::exit(1);
        }
        rules = std::make_shared<const alert::RuleSet>(
            std::move(*loaded));
    }

    // --prom needs per-job telemetry hubs and --alerts per-job
    // engines; set both on a copy of the grid so the caller's
    // experiments stay untouched. Observability never alters
    // results, only records them.
    std::vector<runner::Experiment> observed = grid;
    for (auto &experiment : observed) {
        if (!opts.prom.empty())
            experiment.telemetryEnabled = true;
        experiment.alertRules = rules;
    }
    runner::SweepReport report = pool.runWithReport(observed);

    if (sink)
        sink->close();

    if (!opts.prom.empty()) {
        std::ofstream prom(opts.prom);
        if (!prom) {
            warn("{}: cannot write Prometheus exposition to {}", tool,
                 opts.prom);
        } else {
            telemetry::PromWriter().write(
                prom, &report.stats, report.telemetry.get(),
                rules ? &report.alertStates : nullptr);
        }
    }

    if (!opts.incidents.empty()) {
        std::ofstream os(opts.incidents);
        if (!os)
            warn("{}: cannot write incidents to {}", tool,
                 opts.incidents);
        else
            alert::writeIncidentsJsonl(os, report.incidents);
    }

    if (!opts.incidentHtml.empty()) {
        std::ofstream os(opts.incidentHtml);
        if (!os)
            warn("{}: cannot write incident dashboard to {}", tool,
                 opts.incidentHtml);
        else
            alert::writeIncidentDashboard(os, report.incidents);
    }

    if (!opts.statsJson.empty()) {
        std::ofstream js(opts.statsJson);
        if (!js) {
            warn("{}: cannot write stats JSON to {}", tool,
                 opts.statsJson);
        } else {
            report.stats.dumpJson(js);
            js << "\n";
        }
    }

    if (!opts.manifest.empty()) {
        obs::RunManifest manifest;
        manifest.tool = tool;
        manifest.experiment = "sweep";
        manifest.config = {
            {"jobs", std::to_string(pool.threadCount())},
            {"grid_size", std::to_string(grid.size())},
            {"backend", engine::kEngineName},
        };
        manifest.argv = opts.argv;
        manifest.traceFile = opts.trace;
        if (!opts.trace.empty())
            manifest.traceFormat = opts.traceFormat;
        manifest.statsJsonFile = opts.statsJson;
        manifest.statsJson = report.stats.dumpJsonString();
        manifest.wallSeconds = report.wallSeconds;
        obs::writeManifestFile(opts.manifest, manifest);
    }

    return report;
}

TraceSession::TraceSession(const BenchOptions &opts)
    : sink_(opts.trace.empty()
                ? nullptr
                : obs::FileTraceSink::open(
                      opts.trace,
                      *obs::traceFormatFromName(opts.traceFormat))),
      scope_(sink_.get())
{
    if (!opts.trace.empty() && !sink_)
        std::exit(1);
}

TraceSession::~TraceSession()
{
    if (sink_)
        sink_->close();
}

} // namespace pad::bench
