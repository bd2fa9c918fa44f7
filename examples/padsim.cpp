/**
 * @file
 * padsim — configurable command-line driver for the PAD simulator.
 *
 * Runs a two-phase power attack against a synthetic Google-style
 * cluster under a chosen management scheme and prints (optionally
 * CSV-exports) the outcome. All knobs of the paper's evaluation are
 * exposed as flags:
 *
 *   padsim [--config FILE]
 *          [--scheme Conv|PS|PSPC|uDEB|vDEB|PAD]
 *          [--backend optimized|soa]
 *          [--virus cpu|mem|io] [--style dense|sparse]
 *          [--nodes N] [--racks K] [--duration SEC]
 *          [--budget FRAC] [--cluster-budget FRAC]
 *          [--victim-pct P] [--hour H] [--seed S]
 *          [--csv FILE] [--stats] [--quiet]
 *          [--trace FILE] [--trace-format jsonl|chrome]
 *          [--stats-json FILE] [--manifest FILE]
 *          [--log-level silent|error|warn|info|debug]
 *          [--detector] [--prom FILE]
 *          [--metrics-port N] [--metrics-linger SEC]
 *          [--alerts RULES] [--incidents FILE]
 *          [--incident-html FILE] [--profile-engine]
 *
 * A --config file supplies the same knobs as `key = value` lines
 * (scheme, backend, virus, style, nodes, racks, duration, budget,
 * cluster_budget, victim_pct, hour, seed, csv, stats, quiet, trace,
 * trace_format, stats_json, manifest, log_level, detector, prom,
 * metrics_port, metrics_linger, alerts, incidents, incident_html,
 * profile_engine); command-line flags override it.
 *
 * --backend selects the simulation engine (src/engine): soa, the
 * structure-of-arrays batch engine, is the default; optimized is the
 * scalar reference engine (physically equivalent, not
 * bit-identical).
 *
 * Observability: --prom dumps the final stats registry plus telemetry
 * time-series in Prometheus text exposition format; --metrics-port
 * serves the same rendering over HTTP at /metrics on 127.0.0.1 (port
 * 0 picks a free port, printed on startup). --metrics-linger keeps
 * the endpoint alive for SEC seconds after the run so a scraper can
 * collect the final state. Telemetry recording is enabled only when
 * one of the two is requested — otherwise the run is byte-identical
 * to a build without any of this.
 *
 * Profiling: --profile-engine attaches the engine self-profiler
 * (src/obs/prof.h) for the run. Phase timings, cache hit rates and
 * allocation gauges land in the stats registry as engine.* entries,
 * so they flow into --stats, --stats-json, --prom and the manifest
 * automatically; with --trace they additionally appear as Chrome
 * counter tracks. Off by default — a run without the flag is
 * byte-identical to one on a build without the profiler.
 *
 * Alerting: --alerts evaluates a JSON rules file online against the
 * run's telemetry and curated trace events (src/alert); --incidents
 * streams the sealed incident records as JSONL and --incident-html
 * renders the self-contained dashboard. Alerting is observational
 * like telemetry: the simulation outcome and every other artifact
 * stay byte-identical whether or not it is on.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alert/engine.h"
#include "alert/html.h"
#include "alert/incident.h"
#include "alert/rule.h"
#include "attack/attacker.h"
#include "attack/virus_trace.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/backend.h"
#include "engine/prof_stats.h"
#include "obs/manifest.h"
#include "obs/prof.h"
#include "obs/trace_sink.h"
#include "obs/tracer.h"
#include "sim/stats_registry.h"
#include "telemetry/http.h"
#include "telemetry/hub.h"
#include "telemetry/prom.h"
#include "telemetry/remote_write.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/csv.h"
#include "util/kv_config.h"
#include "util/logging.h"
#include "util/table.h"

using namespace pad;

namespace {

struct Options {
    core::SchemeKind scheme = core::SchemeKind::Pad;
    engine::BackendKind backend = engine::BackendKind::Soa;
    attack::VirusKind virus = attack::VirusKind::CpuIntensive;
    attack::AttackStyle style = attack::AttackStyle::Dense;
    int nodes = 4;
    int racks = 8;
    double durationSec = 1500.0;
    double budget = 0.75;
    double clusterBudget = 0.70;
    double victimPct = 90.0;
    double hour = 11.0;
    std::uint64_t seed = 42;
    std::string csvPath;
    bool statsDump = false;
    bool quiet = false;
    std::string tracePath;
    std::string traceFormat = "jsonl";
    std::string statsJsonPath;
    std::string manifestPath;
    std::string logLevel;
    bool detector = false;
    std::string promPath;
    int metricsPort = -1; // -1 = no HTTP endpoint; 0 = ephemeral
    double metricsLingerSec = 0.0;
    std::string alertsPath;
    std::string incidentsPath;
    std::string incidentHtmlPath;
    bool profileEngine = false;
    std::string pushTo;             // HOST:PORT; empty = push off
    std::string pushSource = "padsim";
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: padsim [--config FILE]\n"
           "              [--scheme Conv|PS|PSPC|uDEB|vDEB|PAD]\n"
           "              [--backend optimized|soa]\n"
           "              [--virus cpu|mem|io] [--style dense|sparse]\n"
           "              [--nodes N] [--racks K] [--duration SEC]\n"
           "              [--budget FRAC] [--cluster-budget FRAC]\n"
           "              [--victim-pct P] [--hour H] [--seed S]\n"
           "              [--csv FILE] [--stats] [--quiet]\n"
           "              [--trace FILE] [--trace-format jsonl|chrome]\n"
           "              [--stats-json FILE] [--manifest FILE]\n"
           "              [--log-level silent|error|warn|info|debug]\n"
           "              [--detector] [--prom FILE]\n"
           "              [--metrics-port N] [--metrics-linger SEC]\n"
           "              [--alerts RULES] [--incidents FILE]\n"
           "              [--incident-html FILE] [--profile-engine]\n"
           "              [--push-to HOST:PORT] [--push-source NAME]\n"
           "  --backend NAME  simulation engine (default soa, the batch\n"
           "                  engine; optimized is the scalar reference)\n";
    std::exit(2);
}

attack::VirusKind parseVirus(const std::string &s);

/**
 * CLI edge of scheme parsing: schemeFromName() itself just returns
 * nullopt for unknown names; turning that into an error message and
 * exit is this binary's job.
 */
core::SchemeKind
requireScheme(const std::string &name)
{
    if (const auto scheme = core::schemeFromName(name))
        return *scheme;
    std::cerr << "padsim: unknown scheme name: " << name << "\n";
    usage();
}

/** Same CLI edge for engine-backend names. */
engine::BackendKind
requireBackend(const std::string &name)
{
    if (const auto kind = engine::backendFromName(name))
        return *kind;
    std::cerr << "padsim: unknown backend name: " << name << "\n";
    usage();
}

/** Apply a key = value config file as option defaults. */
void
applyConfig(Options &opt, const std::string &path)
{
    const KvConfig cfg = KvConfig::fromFile(path);
    if (cfg.has("scheme"))
        opt.scheme = requireScheme(cfg.getString("scheme"));
    if (cfg.has("backend"))
        opt.backend = requireBackend(cfg.getString("backend"));
    if (cfg.has("virus"))
        opt.virus = parseVirus(cfg.getString("virus"));
    if (cfg.has("style"))
        opt.style = cfg.getString("style") == "sparse"
                        ? attack::AttackStyle::Sparse
                        : attack::AttackStyle::Dense;
    opt.nodes = static_cast<int>(cfg.getInt("nodes", opt.nodes));
    opt.racks = static_cast<int>(cfg.getInt("racks", opt.racks));
    opt.durationSec = cfg.getDouble("duration", opt.durationSec);
    opt.budget = cfg.getDouble("budget", opt.budget);
    opt.clusterBudget =
        cfg.getDouble("cluster_budget", opt.clusterBudget);
    opt.victimPct = cfg.getDouble("victim_pct", opt.victimPct);
    opt.hour = cfg.getDouble("hour", opt.hour);
    opt.seed = static_cast<std::uint64_t>(
        cfg.getInt("seed", static_cast<long>(opt.seed)));
    opt.csvPath = cfg.getString("csv", opt.csvPath);
    opt.statsDump = cfg.getBool("stats", opt.statsDump);
    opt.quiet = cfg.getBool("quiet", opt.quiet);
    opt.tracePath = cfg.getString("trace", opt.tracePath);
    opt.traceFormat = cfg.getString("trace_format", opt.traceFormat);
    opt.statsJsonPath = cfg.getString("stats_json", opt.statsJsonPath);
    opt.manifestPath = cfg.getString("manifest", opt.manifestPath);
    opt.logLevel = cfg.getString("log_level", opt.logLevel);
    opt.detector = cfg.getBool("detector", opt.detector);
    opt.promPath = cfg.getString("prom", opt.promPath);
    opt.metricsPort = static_cast<int>(
        cfg.getInt("metrics_port", opt.metricsPort));
    opt.metricsLingerSec =
        cfg.getDouble("metrics_linger", opt.metricsLingerSec);
    opt.alertsPath = cfg.getString("alerts", opt.alertsPath);
    opt.incidentsPath = cfg.getString("incidents", opt.incidentsPath);
    opt.incidentHtmlPath =
        cfg.getString("incident_html", opt.incidentHtmlPath);
    opt.profileEngine =
        cfg.getBool("profile_engine", opt.profileEngine);
    opt.pushTo = cfg.getString("push_to", opt.pushTo);
    opt.pushSource = cfg.getString("push_source", opt.pushSource);
}

attack::VirusKind
parseVirus(const std::string &s)
{
    if (s == "cpu")
        return attack::VirusKind::CpuIntensive;
    if (s == "mem")
        return attack::VirusKind::MemIntensive;
    if (s == "io")
        return attack::VirusKind::IoIntensive;
    usage();
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> std::string {
        if (++i >= argc)
            usage();
        return argv[i];
    };
    // Config file first so explicit flags override it.
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--config")
            applyConfig(opt, argv[i + 1]);
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--config")
            need(i); // already applied
        else if (arg == "--scheme")
            opt.scheme = requireScheme(need(i));
        else if (arg == "--backend")
            opt.backend = requireBackend(need(i));
        else if (arg == "--virus")
            opt.virus = parseVirus(need(i));
        else if (arg == "--style")
            opt.style = need(i) == std::string("sparse")
                            ? attack::AttackStyle::Sparse
                            : attack::AttackStyle::Dense;
        else if (arg == "--nodes")
            opt.nodes = std::atoi(need(i).c_str());
        else if (arg == "--racks")
            opt.racks = std::atoi(need(i).c_str());
        else if (arg == "--duration")
            opt.durationSec = std::atof(need(i).c_str());
        else if (arg == "--budget")
            opt.budget = std::atof(need(i).c_str());
        else if (arg == "--cluster-budget")
            opt.clusterBudget = std::atof(need(i).c_str());
        else if (arg == "--victim-pct")
            opt.victimPct = std::atof(need(i).c_str());
        else if (arg == "--hour")
            opt.hour = std::atof(need(i).c_str());
        else if (arg == "--seed")
            opt.seed = static_cast<std::uint64_t>(
                std::strtoull(need(i).c_str(), nullptr, 10));
        else if (arg == "--csv")
            opt.csvPath = need(i);
        else if (arg == "--stats")
            opt.statsDump = true;
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--trace")
            opt.tracePath = need(i);
        else if (arg == "--trace-format")
            opt.traceFormat = need(i);
        else if (arg == "--stats-json")
            opt.statsJsonPath = need(i);
        else if (arg == "--manifest")
            opt.manifestPath = need(i);
        else if (arg == "--log-level")
            opt.logLevel = need(i);
        else if (arg == "--detector")
            opt.detector = true;
        else if (arg == "--prom")
            opt.promPath = need(i);
        else if (arg == "--metrics-port")
            opt.metricsPort = std::atoi(need(i).c_str());
        else if (arg == "--metrics-linger")
            opt.metricsLingerSec = std::atof(need(i).c_str());
        else if (arg == "--alerts")
            opt.alertsPath = need(i);
        else if (arg == "--incidents")
            opt.incidentsPath = need(i);
        else if (arg == "--incident-html")
            opt.incidentHtmlPath = need(i);
        else if (arg == "--profile-engine")
            opt.profileEngine = true;
        else if (arg == "--push-to")
            opt.pushTo = need(i);
        else if (arg == "--push-source") {
            opt.pushSource = need(i);
            if (opt.pushSource.empty())
                usage();
        } else
            usage();
    }
    if (opt.alertsPath.empty() && (!opt.incidentsPath.empty() ||
                                   !opt.incidentHtmlPath.empty())) {
        std::cerr << "padsim: --incidents/--incident-html require "
                     "--alerts\n";
        usage();
    }
    if (opt.nodes < 1 || opt.nodes > 10 || opt.racks < 1 ||
        opt.racks > 22 || opt.durationSec <= 0.0)
        usage();
    if (const std::string bad = core::checkRunInputs(opt.budget, opt.victimPct);
        !bad.empty()) {
        std::cerr << "padsim: " << bad << "\n";
        usage();
    }
    if (opt.metricsPort > 65535 || opt.metricsLingerSec < 0.0)
        usage();
    if (!obs::traceFormatFromName(opt.traceFormat)) {
        std::cerr << "padsim: unknown trace format: " << opt.traceFormat
                  << "\n";
        usage();
    }
    if (!opt.logLevel.empty() && !logLevelFromName(opt.logLevel)) {
        std::cerr << "padsim: unknown log level: " << opt.logLevel
                  << "\n";
        usage();
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    initLoggingFromEnvironment();
    const Options opt = parseArgs(argc, argv);
    if (opt.quiet)
        setLogLevel(LogLevel::Warn);
    if (!opt.logLevel.empty())
        setLogLevel(*logLevelFromName(opt.logLevel));

    const auto wallStart = std::chrono::steady_clock::now();
    std::unique_ptr<obs::FileTraceSink> traceSink;
    if (!opt.tracePath.empty()) {
        traceSink = obs::FileTraceSink::open(
            opt.tracePath, *obs::traceFormatFromName(opt.traceFormat));
        if (!traceSink)
            return 1;
    }
    const obs::TraceScope traceScope(traceSink.get());

    // --alerts: parse the rules up front so a bad file fails before
    // the simulation spends any time.
    std::unique_ptr<alert::AlertEngine> alerts;
    if (!opt.alertsPath.empty()) {
        std::string error;
        auto rules = alert::loadRulesFile(opt.alertsPath, &error);
        if (!rules) {
            std::cerr << "padsim: " << error << "\n";
            return 1;
        }
        alerts =
            std::make_unique<alert::AlertEngine>(std::move(*rules));
    }

    trace::SyntheticTraceConfig tc;
    tc.machines = 220;
    tc.days = 2.0;
    tc.seed = opt.seed;
    trace::SyntheticGoogleTrace gen(tc);
    const auto events = gen.generate();
    trace::Workload workload(events, tc.machines,
                             static_cast<Tick>(tc.days * kTicksPerDay));

    core::DataCenterConfig cfg;
    cfg.scheme = opt.scheme;
    cfg.budgetFraction = opt.budget;
    cfg.clusterBudgetFraction = opt.clusterBudget;
    cfg.deb = core::defaultDebConfig(cfg.rackNameplate());
    cfg.seed = opt.seed;
    cfg.detectorResponse = opt.detector;
    const auto enginePtr =
        engine::makeClusterEngine(opt.backend, cfg, &workload);
    engine::ClusterEngine &dc = *enginePtr;

    obs::EngineProfiler prof;
    if (opt.profileEngine)
        dc.setProfiler(&prof);

    // Telemetry is recorded only when something will consume it, so
    // plain runs stay byte-identical to a build without these flags.
    // The alert engine feeds off hub samples, so --alerts activates
    // the hub too (still observational — results never change).
    telemetry::TelemetryHub hub;
    const bool wantTelemetry = !opt.promPath.empty() ||
                               opt.metricsPort >= 0 ||
                               !opt.pushTo.empty();
    if (wantTelemetry || alerts)
        dc.setTelemetry(&hub);
    if (alerts)
        hub.setListener(alerts.get());

    // Curated trace events reach the engine through a sink wrapper
    // bound around the run; the inner sink (possibly null) still
    // receives everything, so --trace output is unaffected.
    std::unique_ptr<alert::AlertTraceSink> alertFeed;
    std::optional<obs::TraceScope> alertScope;
    if (alerts) {
        alertFeed = std::make_unique<alert::AlertTraceSink>(
            *alerts, traceSink.get());
        alertScope.emplace(alertFeed.get());
    }

    // The scrape endpoint renders the live hub during the run; the
    // stats registry joins once the run has finalised it (the atomic
    // pointer flips exactly once, after which the registry is only
    // ever read).
    std::atomic<const sim::StatsRegistry *> scrapeStats{nullptr};
    std::unique_ptr<telemetry::MetricsHttpServer> metrics;
    if (opt.metricsPort >= 0) {
        metrics = std::make_unique<telemetry::MetricsHttpServer>(
            opt.metricsPort, [&hub, &scrapeStats] {
                return telemetry::PromWriter().render(
                    scrapeStats.load(std::memory_order_acquire),
                    &hub);
            });
        std::string error;
        if (!metrics->start(&error)) {
            std::cerr << "padsim: cannot serve metrics: " << error
                      << "\n";
            return 1;
        }
        std::cout << "metrics endpoint: http://127.0.0.1:"
                  << metrics->port() << "/metrics\n";
    }

    dc.runCoarseUntil(kTicksPerDay +
                      static_cast<Tick>(opt.hour * kTicksPerHour));

    attack::AttackerConfig ac;
    ac.controlledNodes = opt.nodes;
    ac.kind = opt.virus;
    ac.train = attack::spikeTrainFor(opt.style, opt.virus);
    ac.prepareSec = 60.0;
    ac.maxDrainSec = 600.0;
    ac.seed = opt.seed;
    attack::TwoPhaseAttacker attacker(ac);

    core::AttackScenario sc;
    sc.targetPolicy = core::TargetPolicy::Fixed;
    sc.targetRack = core::rackByLoadPercentile(
        workload, cfg, dc.now(),
        dc.now() + secondsToTicks(opt.durationSec), opt.victimPct);
    for (int i = 1; i < opt.racks; ++i) {
        const double pct =
            std::max(0.0, opt.victimPct - 5.0 * i);
        const int rack = core::rackByLoadPercentile(
            workload, cfg, dc.now(),
            dc.now() + secondsToTicks(opt.durationSec), pct);
        if (rack != sc.targetRack &&
            std::find(sc.extraVictimRacks.begin(),
                      sc.extraVictimRacks.end(),
                      rack) == sc.extraVictimRacks.end())
            sc.extraVictimRacks.push_back(rack);
    }
    sc.durationSec = opt.durationSec;

    const auto out = dc.runAttack(attacker, sc);

    if (alerts) {
        hub.setListener(nullptr);
        alertScope.reset();
        alerts->finalize(dc.now());
    }

    TextTable table("padsim result");
    table.setHeader({"metric", "value"});
    table.addRow({"scheme", core::schemeName(opt.scheme)});
    table.addRow({"backend", engine::backendName(opt.backend)});
    table.addRow({"virus", attack::virusKindName(opt.virus)});
    table.addRow({"style", attack::attackStyleName(opt.style)});
    table.addRow({"victim rack", std::to_string(sc.targetRack)});
    table.addRow({"attacked racks",
                  std::to_string(1 + sc.extraVictimRacks.size())});
    table.addRow({"survival (s)", formatFixed(out.survivalSec, 1)});
    table.addRow({"effective attacks",
                  std::to_string(out.rack.effectiveAttacks())});
    table.addRow({"spikes launched",
                  std::to_string(out.spikesLaunched)});
    table.addRow({"phase II at (s)",
                  formatFixed(out.phaseTwoStartSec, 1)});
    table.addRow({"throughput", formatFixed(out.throughput, 4)});
    table.addRow({"max shed ratio",
                  formatPercent(out.maxShedRatio, 1)});
    table.print(std::cout);

    if (traceSink)
        traceSink->close();

    sim::StatsRegistry stats;
    dc.exportStats(stats);
    if (opt.profileEngine)
        engine::exportProfilerStats(prof, stats);
    stats
        .registerScalar("attack.survival_sec",
                        "attack start to first overload")
        .set(out.survivalSec);
    stats
        .registerScalar("attack.throughput",
                        "benign throughput over the window")
        .set(out.throughput);
    stats
        .registerCounter("attack.spikes_launched",
                         "hidden spikes launched in Phase II")
        .add(static_cast<std::uint64_t>(
            std::max(0, out.spikesLaunched)));
    scrapeStats.store(&stats, std::memory_order_release);

    std::vector<telemetry::AlertStateSample> alertStates;
    if (alerts)
        alertStates = alerts->ruleStates();

    // --push-to: a batch run ships its whole hub plus the final
    // stats registry as one end-of-run push (DESIGN.md §14). The
    // drain deadline bounds how long a dead receiver can stall the
    // exit; anything undelivered shows up in the printed counters.
    if (!opt.pushTo.empty()) {
        std::string error;
        const auto target =
            telemetry::parseHostPort(opt.pushTo, &error);
        if (!target) {
            std::cerr << "padsim: --push-to: " << error << "\n";
            return 1;
        }
        telemetry::RemoteWriteOptions rw;
        rw.host = target->first;
        rw.port = target->second;
        rw.source = opt.pushSource;
        rw.jitterSeed = opt.seed * 0x9e3779b97f4a7c15ULL + 1;
        telemetry::RemoteWriteShipper shipper(std::move(rw), &hub);
        if (!shipper.start(&error)) {
            std::cerr << "padsim: " << error << "\n";
            return 1;
        }
        shipper.finish(dc.now(), &stats);
        const auto c = shipper.counters();
        std::cout << "\npushed " << c.batchesSent << " batches ("
                  << c.samplesShipped << " samples) to " << opt.pushTo
                  << " as " << opt.pushSource << "\n";
        if (c.batchesDropped > 0)
            warn("padsim: {} push batches dropped (receiver at {} "
                 "unreachable?)",
                 c.batchesDropped, opt.pushTo);
    }

    if (!opt.promPath.empty()) {
        std::ofstream prom(opt.promPath);
        if (!prom) {
            warn("padsim: cannot write Prometheus exposition to {}",
                 opt.promPath);
        } else {
            telemetry::PromWriter().write(
                prom, &stats, &hub, alerts ? &alertStates : nullptr);
            std::cout << "\nPrometheus exposition written to "
                      << opt.promPath << "\n";
        }
    }

    if (!opt.incidentsPath.empty()) {
        std::ofstream os(opt.incidentsPath);
        if (!os) {
            warn("padsim: cannot write incidents to {}",
                 opt.incidentsPath);
        } else {
            alert::writeIncidentsJsonl(os, alerts->incidents());
            std::cout << "\nincidents written to " << opt.incidentsPath
                      << "\n";
        }
    }

    if (!opt.incidentHtmlPath.empty()) {
        std::ofstream os(opt.incidentHtmlPath);
        if (!os) {
            warn("padsim: cannot write incident dashboard to {}",
                 opt.incidentHtmlPath);
        } else {
            alert::writeIncidentDashboard(os, alerts->incidents());
            std::cout << "\nincident dashboard written to "
                      << opt.incidentHtmlPath << "\n";
        }
    }

    if (opt.statsDump) {
        std::cout << "\n";
        dc.dumpStats(std::cout);
    }

    if (!opt.statsJsonPath.empty()) {
        std::ofstream js(opt.statsJsonPath);
        if (!js) {
            warn("padsim: cannot write stats JSON to {}",
                 opt.statsJsonPath);
        } else {
            stats.dumpJson(js);
            js << "\n";
        }
    }

    if (!opt.manifestPath.empty()) {
        obs::RunManifest manifest;
        manifest.tool = "padsim";
        manifest.experiment = core::schemeName(opt.scheme);
        manifest.seed = opt.seed;
        manifest.config = {
            {"scheme", std::string(core::schemeName(opt.scheme))},
            {"backend", std::string(engine::backendName(opt.backend))},
            {"virus", std::string(attack::virusKindName(opt.virus))},
            {"style", std::string(attack::attackStyleName(opt.style))},
            {"nodes", std::to_string(opt.nodes)},
            {"racks", std::to_string(opt.racks)},
            {"duration_sec", formatFixed(opt.durationSec, 1)},
            {"budget", formatFixed(opt.budget, 4)},
            {"cluster_budget", formatFixed(opt.clusterBudget, 4)},
            {"victim_pct", formatFixed(opt.victimPct, 1)},
            {"hour", formatFixed(opt.hour, 2)},
        };
        manifest.argv.assign(argv, argv + argc);
        manifest.traceFile = opt.tracePath;
        if (!opt.tracePath.empty())
            manifest.traceFormat = opt.traceFormat;
        manifest.statsJsonFile = opt.statsJsonPath;
        manifest.pushTarget = opt.pushTo;
        manifest.statsJson = stats.dumpJsonString();
        manifest.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wallStart)
                .count();
        writeManifestFile(opt.manifestPath, manifest);
    }

    if (!opt.csvPath.empty()) {
        CsvWriter csv(opt.csvPath);
        csv.write({"t_seconds", "rack_power_w", "rack_draw_w",
                   "rack_soc", "udeb_soc", "level"});
        const Tick start = out.rackPower.samples().front().when;
        for (const auto &s : out.rackPower.samples()) {
            csv.writeNumbers({ticksToSeconds(s.when - start), s.value,
                              out.rackDraw.valueAt(s.when),
                              out.rackSoc.valueAt(s.when),
                              out.udebSoc.valueAt(s.when),
                              out.level.valueAt(s.when)});
        }
        std::cout << "\ntime series written to " << opt.csvPath
                  << "\n";
    }

    if (metrics) {
        if (opt.metricsLingerSec > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(opt.metricsLingerSec));
        metrics->stop();
    }
    return 0;
}
