/**
 * @file
 * padd — the PAD live service daemon (DESIGN.md §13).
 *
 * Runs the simulated battery-backed data center as a long-lived
 * wall-clock service instead of a batch run: telemetry is scraped
 * while it happens, alert incidents stream out as they seal, and
 * attack scenarios are injected into the live fleet over a local
 * control socket. Every external input is stamped with its sim-time
 * tick into a session record, so any live session — however
 * interactively it was driven — replays deterministically.
 *
 * Daemon mode:
 *
 *   padd [--scheme Conv|PS|PSPC|uDEB|vDEB|PAD]
 *        [--backend optimized|soa]
 *        [--budget FRAC] [--cluster-budget FRAC]
 *        [--hour H] [--days D] [--duration SEC] [--seed S]
 *        [--detector] [--speed X|max]
 *        [--metrics-port N] [--control-port N] [--port-file FILE]
 *        [--alerts RULES] [--session FILE] [--incidents FILE]
 *        [--stats-json FILE] [--prom FILE] [--manifest FILE]
 *        [--push-to HOST:PORT] [--push-interval-s N]
 *        [--push-spool DIR] [--push-source NAME]
 *        [--quiet] [--log-level L]
 *
 * --backend selects the simulation engine: soa (the default) or the
 * scalar reference optimized; the session header records it, so a
 * replay runs on the engine the live session ran on.
 *
 * --speed is sim-seconds per wall-second (default 60, i.e. a sim
 * minute per second; "max" = unpaced). --duration auto-stops after
 * SEC simulated seconds of live service; without it the daemon runs
 * until a shutdown command or SIGINT/SIGTERM. Both ports default to
 * 0 (ephemeral); the resolved endpoints are printed on startup and,
 * with --port-file, written as `control=N` / `metrics=N` lines for
 * scripts. --session records the session; --incidents streams
 * sealed incidents (requires --alerts). --push-to streams tick-
 * stamped telemetry batches to a padrx receiver (DESIGN.md §14);
 * --push-interval-s sets the sim-time snapshot cadence (default
 * 60), --push-spool enables the on-disk WAL for receiver outages,
 * and --push-source names this daemon in the receiver's merged
 * fleet.<source>.* namespace.
 *
 * Replay mode:
 *
 *   padd --replay SESSION [--incidents FILE] [--stats-json FILE]
 *        [--prom FILE] [--push-to HOST:PORT ...]
 *
 * re-executes the recorded session at max speed with no endpoints
 * and writes byte-identical artifacts to the live run's. With
 * --push-to it also re-ships the live run's exact batch stream
 * (batches are cut by sim tick, not wall time).
 *
 * Client mode:
 *
 *   padd --connect PORT --cmd CMD [--cmd CMD ...]
 *
 * sends commands to a running daemon and prints each response line.
 * A CMD starting with '{' is sent verbatim; a bare word W is sent
 * as {"cmd":"W"} — so `--cmd status`, `--cmd pause`, `--cmd
 * '{"cmd":"inject-attack","spec":{"racks":22}}'`.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/schemes.h"
#include "engine/backend.h"
#include "service/control.h"
#include "service/daemon.h"
#include "service/session.h"
#include "util/logging.h"

using namespace pad;

namespace {

struct Options {
    service::DaemonOptions daemon;
    std::string alertsPath;
    std::string portFilePath;
    std::string replayPath;
    std::string replayIncidentsPath;
    std::string replayStatsJsonPath;
    std::string replayPromPath;
    int connectPort = -1;
    std::vector<std::string> commands;
    bool quiet = false;
    std::string logLevel;
};

[[noreturn]] void
usage()
{
    std::cerr
        << "usage: padd [--scheme Conv|PS|PSPC|uDEB|vDEB|PAD]\n"
           "            [--backend optimized|soa]\n"
           "            [--budget FRAC] [--cluster-budget FRAC]\n"
           "            [--hour H] [--days D] [--duration SEC]\n"
           "            [--seed S] [--detector] [--speed X|max]\n"
           "            [--metrics-port N] [--control-port N]\n"
           "            [--port-file FILE]\n"
           "            [--alerts RULES] [--session FILE]\n"
           "            [--incidents FILE] [--stats-json FILE]\n"
           "            [--prom FILE] [--manifest FILE]\n"
           "            [--push-to HOST:PORT] [--push-interval-s N]\n"
           "            [--push-spool DIR] [--push-source NAME]\n"
           "            [--quiet] [--log-level L]\n"
           "       padd --replay SESSION [--incidents FILE]\n"
           "            [--stats-json FILE] [--prom FILE]\n"
           "            [--push-to HOST:PORT ...]\n"
           "       padd --connect PORT --cmd CMD [--cmd CMD ...]\n"
           "  --backend NAME  simulation engine (default soa, the batch\n"
           "                  engine; optimized is the scalar reference)\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.daemon.speed = 60.0; // a sim minute per wall second
    auto need = [&](int &i) -> std::string {
        if (++i >= argc)
            usage();
        return argv[i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--scheme") {
            const auto scheme = core::schemeFromName(need(i));
            if (!scheme) {
                std::cerr << "padd: unknown scheme name\n";
                usage();
            }
            opt.daemon.config.scheme = *scheme;
        } else if (arg == "--backend") {
            const auto backend = engine::backendFromName(need(i));
            if (!backend) {
                std::cerr << "padd: unknown backend name\n";
                usage();
            }
            opt.daemon.config.backend = *backend;
        } else if (arg == "--budget")
            opt.daemon.config.budget = std::atof(need(i).c_str());
        else if (arg == "--cluster-budget")
            opt.daemon.config.clusterBudget =
                std::atof(need(i).c_str());
        else if (arg == "--hour")
            opt.daemon.config.hour = std::atof(need(i).c_str());
        else if (arg == "--days")
            opt.daemon.config.days = std::atof(need(i).c_str());
        else if (arg == "--duration")
            opt.daemon.config.durationSec =
                std::atof(need(i).c_str());
        else if (arg == "--seed")
            opt.daemon.config.seed = static_cast<std::uint64_t>(
                std::strtoull(need(i).c_str(), nullptr, 10));
        else if (arg == "--detector")
            opt.daemon.config.detector = true;
        else if (arg == "--speed") {
            const std::string value = need(i);
            opt.daemon.speed =
                value == "max" ? 0.0 : std::atof(value.c_str());
            if (value != "max" && opt.daemon.speed <= 0.0)
                usage();
        } else if (arg == "--metrics-port")
            opt.daemon.metricsPort = std::atoi(need(i).c_str());
        else if (arg == "--control-port")
            opt.daemon.controlPort = std::atoi(need(i).c_str());
        else if (arg == "--port-file")
            opt.portFilePath = need(i);
        else if (arg == "--alerts")
            opt.alertsPath = need(i);
        else if (arg == "--session")
            opt.daemon.sessionPath = need(i);
        else if (arg == "--incidents") {
            // shared by daemon and replay mode
            opt.daemon.incidentsPath = need(i);
            opt.replayIncidentsPath = opt.daemon.incidentsPath;
        } else if (arg == "--stats-json") {
            opt.daemon.statsJsonPath = need(i);
            opt.replayStatsJsonPath = opt.daemon.statsJsonPath;
        } else if (arg == "--prom") {
            opt.daemon.promPath = need(i);
            opt.replayPromPath = opt.daemon.promPath;
        } else if (arg == "--manifest")
            opt.daemon.manifestPath = need(i);
        else if (arg == "--push-to")
            opt.daemon.pushTo = need(i);
        else if (arg == "--push-interval-s") {
            opt.daemon.pushIntervalS = std::atof(need(i).c_str());
            if (opt.daemon.pushIntervalS <= 0.0)
                usage();
        } else if (arg == "--push-spool")
            opt.daemon.pushSpoolDir = need(i);
        else if (arg == "--push-source") {
            opt.daemon.pushSource = need(i);
            if (opt.daemon.pushSource.empty())
                usage();
        } else if (arg == "--replay")
            opt.replayPath = need(i);
        else if (arg == "--connect")
            opt.connectPort = std::atoi(need(i).c_str());
        else if (arg == "--cmd")
            opt.commands.push_back(need(i));
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--log-level")
            opt.logLevel = need(i);
        else
            usage();
    }
    if (opt.connectPort >= 0 && opt.commands.empty())
        usage();
    if (!opt.commands.empty() && opt.connectPort < 0)
        usage();
    if (!opt.replayPath.empty() && opt.connectPort >= 0)
        usage();
    if (opt.daemon.metricsPort > 65535 ||
        opt.daemon.controlPort > 65535)
        usage();
    if (!opt.daemon.incidentsPath.empty() && opt.replayPath.empty() &&
        opt.alertsPath.empty()) {
        std::cerr << "padd: --incidents requires --alerts\n";
        usage();
    }
    if (const std::string bad =
            core::checkRunInputs(opt.daemon.config.budget);
        !bad.empty()) {
        std::cerr << "padd: " << bad << "\n";
        usage();
    }
    if (!opt.logLevel.empty() && !logLevelFromName(opt.logLevel)) {
        std::cerr << "padd: unknown log level: " << opt.logLevel
                  << "\n";
        usage();
    }
    return opt;
}

void
printSummary(const char *mode, const service::DaemonResult &result)
{
    std::cout << mode << " finished at tick " << result.endTick
              << " (" << ticksToSeconds(result.endTick) / 3600.0
              << " sim hours): " << result.commands << " commands, "
              << result.attacks << " attacks, " << result.incidents
              << " incidents\n";
}

int
runClient(const Options &opt)
{
    service::ControlClient client;
    std::string error;
    if (!client.connect(opt.connectPort, &error)) {
        std::cerr << "padd: " << error << "\n";
        return 1;
    }
    for (const std::string &cmd : opt.commands) {
        const std::string line =
            !cmd.empty() && cmd.front() == '{'
                ? cmd
                : "{\"cmd\":\"" + cmd + "\"}";
        const auto response = client.request(line);
        if (!response) {
            std::cerr << "padd: no response to: " << line << "\n";
            return 1;
        }
        std::cout << *response << "\n";
    }
    return 0;
}

int
runReplay(const Options &opt)
{
    std::string error;
    const auto log =
        service::readSessionFile(opt.replayPath, &error);
    if (!log) {
        std::cerr << "padd: " << error << "\n";
        return 1;
    }
    service::ReplayArtifacts artifacts;
    artifacts.incidentsPath = opt.replayIncidentsPath;
    artifacts.statsJsonPath = opt.replayStatsJsonPath;
    artifacts.promPath = opt.replayPromPath;
    artifacts.pushTo = opt.daemon.pushTo;
    artifacts.pushIntervalS = opt.daemon.pushIntervalS;
    artifacts.pushSpoolDir = opt.daemon.pushSpoolDir;
    artifacts.pushSource = opt.daemon.pushSource;
    service::DaemonResult result;
    if (!service::replaySession(*log, artifacts, &error, &result)) {
        std::cerr << "padd: " << error << "\n";
        return 1;
    }
    printSummary("replay", result);
    return 0;
}

service::ServiceDaemon *g_daemon = nullptr;

void
onSignal(int)
{
    if (g_daemon)
        g_daemon->requestShutdown();
}

int
runDaemon(Options &opt)
{
    if (!opt.alertsPath.empty()) {
        std::ifstream in(opt.alertsPath);
        if (!in) {
            std::cerr << "padd: cannot open rules file: "
                      << opt.alertsPath << "\n";
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        opt.daemon.rulesText = buf.str();
    }

    service::ServiceDaemon daemon(std::move(opt.daemon));
    std::string error;
    if (!daemon.start(&error)) {
        std::cerr << "padd: " << error << "\n";
        return 1;
    }

    std::cout << "control endpoint: 127.0.0.1:"
              << daemon.controlPort() << "\n"
              << "metrics endpoint: http://127.0.0.1:"
              << daemon.metricsPort() << "/metrics\n"
              << std::flush;
    if (!opt.portFilePath.empty()) {
        std::ofstream ports(opt.portFilePath);
        if (!ports) {
            std::cerr << "padd: cannot write port file: "
                      << opt.portFilePath << "\n";
            return 1;
        }
        ports << "control=" << daemon.controlPort() << "\n"
              << "metrics=" << daemon.metricsPort() << "\n";
    }

    g_daemon = &daemon;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    daemon.run();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_daemon = nullptr;

    printSummary("session", daemon.result());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    initLoggingFromEnvironment();
    Options opt = parseArgs(argc, argv);
    if (opt.quiet)
        setLogLevel(LogLevel::Warn);
    if (!opt.logLevel.empty())
        setLogLevel(*logLevelFromName(opt.logLevel));

    if (opt.connectPort >= 0)
        return runClient(opt);
    if (!opt.replayPath.empty())
        return runReplay(opt);
    return runDaemon(opt);
}
