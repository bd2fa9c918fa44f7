/**
 * @file
 * padrx — the fleet telemetry receiver (DESIGN.md §14).
 *
 * Hosts a ReceiverServer that ingests pad-rw-v2 batch streams from
 * any number of `padd --push-to` / `padsim --push-to` shippers,
 * merges every series into one TelemetryHub under `fleet.<source>.`
 * prefixes, and re-exposes the merged state as a single aggregate
 * Prometheus endpoint — one scrape for a whole fleet of daemons.
 * With --alerts the PR-5 alert rules run over the merged stream, so
 * fleet-wide patterns (coordinated attacks across PDUs) fire rules
 * no single daemon's telemetry could.
 *
 *   padrx [--listen-port N] [--metrics-port N] [--port-file FILE]
 *         [--alerts RULES] [--incidents FILE] [--dump FILE]
 *         [--quiet] [--log-level L]
 *
 * Both ports default to 0 (ephemeral); the resolved endpoints are
 * printed on startup and, with --port-file, written as `ingest=N` /
 * `metrics=N` lines for scripts. Runs until SIGINT/SIGTERM, then
 * finalizes alerts, writes the deterministic merged dump (--dump),
 * and prints a summary. Two padrx runs fed the same batch streams
 * (e.g. replays of one recorded session) write byte-identical
 * dumps.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "alert/engine.h"
#include "alert/incident.h"
#include "alert/rule.h"
#include "telemetry/http.h"
#include "telemetry/receiver.h"
#include "util/logging.h"

using namespace pad;

namespace {

struct Options {
    int listenPort = 0;
    int metricsPort = 0;
    std::string portFilePath;
    std::string alertsPath;
    std::string incidentsPath;
    std::string dumpPath;
    bool quiet = false;
    std::string logLevel;
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: padrx [--listen-port N] [--metrics-port N]\n"
           "             [--port-file FILE]\n"
           "             [--alerts RULES] [--incidents FILE]\n"
           "             [--dump FILE]\n"
           "             [--quiet] [--log-level L]\n";
    std::exit(2);
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
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--listen-port")
            opt.listenPort = std::atoi(need(i).c_str());
        else if (arg == "--metrics-port")
            opt.metricsPort = std::atoi(need(i).c_str());
        else if (arg == "--port-file")
            opt.portFilePath = need(i);
        else if (arg == "--alerts")
            opt.alertsPath = need(i);
        else if (arg == "--incidents")
            opt.incidentsPath = need(i);
        else if (arg == "--dump")
            opt.dumpPath = need(i);
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--log-level")
            opt.logLevel = need(i);
        else
            usage();
    }
    if (opt.listenPort < 0 || opt.listenPort > 65535 ||
        opt.metricsPort > 65535)
        usage();
    if (!opt.incidentsPath.empty() && opt.alertsPath.empty()) {
        std::cerr << "padrx: --incidents requires --alerts\n";
        usage();
    }
    if (!opt.logLevel.empty() && !logLevelFromName(opt.logLevel)) {
        std::cerr << "padrx: unknown log level: " << opt.logLevel
                  << "\n";
        usage();
    }
    return opt;
}

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
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

    // Alerts over the merged stream: the receiver's single service
    // thread records every sample, which satisfies the engine's
    // single-recording-thread contract.
    std::unique_ptr<alert::AlertEngine> alerts;
    std::ofstream incidents;
    std::uint64_t sealed = 0;
    if (!opt.alertsPath.empty()) {
        std::string error;
        auto rules = alert::loadRulesFile(opt.alertsPath, &error);
        if (!rules) {
            std::cerr << "padrx: " << error << "\n";
            return 1;
        }
        alerts = std::make_unique<alert::AlertEngine>(
            std::move(*rules));
        if (!opt.incidentsPath.empty()) {
            incidents.open(opt.incidentsPath);
            if (!incidents) {
                std::cerr << "padrx: cannot open incidents file: "
                          << opt.incidentsPath << "\n";
                return 1;
            }
        }
        alerts->setIncidentSink([&](const alert::Incident &inc) {
            ++sealed;
            if (incidents.is_open())
                alert::writeIncidentLine(incidents, inc);
        });
    }

    telemetry::ReceiverServer receiver(opt.listenPort);
    if (alerts)
        receiver.setListener(alerts.get());
    std::string error;
    if (!receiver.start(&error)) {
        std::cerr << "padrx: " << error << "\n";
        return 1;
    }

    std::unique_ptr<telemetry::MetricsHttpServer> metrics;
    if (opt.metricsPort >= 0) {
        metrics = std::make_unique<telemetry::MetricsHttpServer>(
            opt.metricsPort,
            [&receiver] { return receiver.renderMetrics(); });
        if (!metrics->start(&error)) {
            std::cerr << "padrx: cannot serve metrics: " << error
                      << "\n";
            return 1;
        }
    }

    std::cout << "ingest endpoint: 127.0.0.1:" << receiver.port()
              << "\n";
    if (metrics)
        std::cout << "metrics endpoint: http://127.0.0.1:"
                  << metrics->port() << "/metrics\n";
    std::cout << std::flush;
    if (!opt.portFilePath.empty()) {
        std::ofstream ports(opt.portFilePath);
        if (!ports) {
            std::cerr << "padrx: cannot write port file: "
                      << opt.portFilePath << "\n";
            return 1;
        }
        ports << "ingest=" << receiver.port() << "\n"
              << "metrics=" << (metrics ? metrics->port() : -1)
              << "\n";
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    // Shutdown order: stop ingest first so the merged state is
    // frozen, then finalize alerts at the newest merged tick, then
    // write the deterministic dump.
    receiver.stop();
    if (metrics)
        metrics->stop();
    if (alerts) {
        receiver.setListener(nullptr);
        const Tick endTick = receiver.maxTick();
        alerts->finalize(endTick == kTickNever ? 0 : endTick);
    }
    if (!opt.dumpPath.empty()) {
        std::ofstream dump(opt.dumpPath);
        if (!dump) {
            std::cerr << "padrx: cannot write dump file: "
                      << opt.dumpPath << "\n";
            return 1;
        }
        dump << receiver.dumpMerged();
    }

    const auto c = receiver.counters();
    std::cout << "padrx: merged " << c.batches << " batches ("
              << c.samples << " samples) and " << c.statsBatches
              << " stats dumps from " << receiver.sourceCount()
              << " sources; " << c.duplicates << " duplicates, "
              << c.protocolErrors << " protocol errors";
    if (alerts)
        std::cout << "; " << sealed << " incidents";
    std::cout << "\n";
    return 0;
}
