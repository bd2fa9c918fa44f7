/**
 * @file
 * padd service-layer tests: the session record codec, the local
 * control channel, and the live daemon end to end — including the
 * PR's headline guarantee, that replaying a recorded live session
 * reproduces the incidents stream, the stats dump and the
 * Prometheus exposition byte for byte.
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "scoped_temp_dir.h"
#include "service/control.h"
#include "service/daemon.h"
#include "service/session.h"
#include "telemetry/prom.h"
#include "util/json.h"

using namespace pad;
using namespace pad::service;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
defaultRulesText()
{
    return slurp(std::string(PAD_RULES_DIR) + "/pad_default.json");
}

/** Minimal HTTP GET against 127.0.0.1:port; returns the raw reply. */
std::string
httpGet(int port, const std::string &path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    const std::string req =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    (void)::send(fd, req.data(), req.size(), 0);
    std::string reply;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        reply.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return reply;
}

bool
responseOk(const std::string &line)
{
    std::string error;
    const auto node = parseJson(line, &error);
    if (!node || !node->isObject())
        return false;
    const JsonValue *ok = node->find("ok");
    return ok && ok->isBool() && ok->boolean;
}

} // namespace

// ---------------------------------------------------------------------
// Session codec
// ---------------------------------------------------------------------

TEST(SessionCodec, WriterParserRoundTrip)
{
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    const std::string path = "svc_roundtrip_session.jsonl";
    ServiceConfig config;
    config.scheme = core::SchemeKind::Conv;
    config.backend = engine::BackendKind::Soa;
    config.budget = 0.8;
    config.hour = 9.5;
    config.durationSec = 1234.0;
    config.seed = 7;
    config.detector = true;

    AttackSpec spec;
    spec.virus = attack::VirusKind::MemIntensive;
    spec.style = attack::AttackStyle::Sparse;
    spec.nodes = 2;
    spec.racks = 3;
    spec.durationSec = 600.0;
    spec.victimPct = 75.0;
    spec.seed = 99;

    {
        SessionWriter writer(path);
        ASSERT_TRUE(writer.ok());
        writer.writeHeader(config, "{\"rules\": []}");
        SessionCommand pause;
        pause.seq = 0;
        pause.tick = 1000;
        pause.name = "pause";
        writer.writeCommand(pause);
        SessionCommand inject;
        inject.seq = 1;
        inject.tick = 2000;
        inject.name = "inject-attack";
        inject.spec = spec;
        writer.writeCommand(inject);
        SessionCommand speed;
        speed.seq = 2;
        speed.tick = 2000;
        speed.name = "set-speed";
        speed.speed = 120.0;
        writer.writeCommand(speed);
        writer.writeEnd(5000);
    }

    std::string error;
    const auto log = readSessionFile(path, &error);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_EQ(log->config.scheme, core::SchemeKind::Conv);
    EXPECT_EQ(log->config.backend, engine::BackendKind::Soa);
    EXPECT_DOUBLE_EQ(log->config.budget, 0.8);
    EXPECT_DOUBLE_EQ(log->config.hour, 9.5);
    EXPECT_DOUBLE_EQ(log->config.durationSec, 1234.0);
    EXPECT_EQ(log->config.seed, 7u);
    EXPECT_TRUE(log->config.detector);
    EXPECT_EQ(log->rules, "{\"rules\": []}");
    ASSERT_EQ(log->commands.size(), 3u);
    EXPECT_EQ(log->commands[0].name, "pause");
    EXPECT_EQ(log->commands[0].tick, 1000);
    ASSERT_TRUE(log->commands[1].spec.has_value());
    EXPECT_EQ(log->commands[1].spec->virus,
              attack::VirusKind::MemIntensive);
    EXPECT_EQ(log->commands[1].spec->style,
              attack::AttackStyle::Sparse);
    EXPECT_EQ(log->commands[1].spec->nodes, 2);
    EXPECT_EQ(log->commands[1].spec->racks, 3);
    EXPECT_DOUBLE_EQ(log->commands[1].spec->victimPct, 75.0);
    EXPECT_EQ(log->commands[1].spec->seed, 99u);
    EXPECT_DOUBLE_EQ(log->commands[2].speed, 120.0);
    EXPECT_EQ(log->endTick, 5000);
}

TEST(SessionCodec, ParserRejectsMalformedSessions)
{
    const char *header =
        "{\"type\":\"header\",\"version\":1,\"tool\":\"padd\","
        "\"config\":{},\"rules\":\"\"}\n";
    const struct {
        std::string text;
        const char *why;
    } cases[] = {
        {"{\"type\":\"cmd\",\"seq\":0,\"tick\":1,\"name\":"
         "\"pause\"}\n",
         "command before header"},
        {std::string(header) + "{\"type\":\"cmd\",\"seq\":0,"
                               "\"tick\":1,\"name\":\"nonsense\"}\n",
         "unknown command"},
        {std::string(header) +
             "{\"type\":\"cmd\",\"seq\":0,\"tick\":1,\"name\":"
             "\"inject-attack\"}\n",
         "inject-attack without a spec"},
        {std::string(header) +
             "{\"type\":\"cmd\",\"seq\":0,\"tick\":5,\"name\":"
             "\"pause\"}\n"
             "{\"type\":\"cmd\",\"seq\":2,\"tick\":6,\"name\":"
             "\"resume\"}\n",
         "seq gap"},
        {std::string(header) +
             "{\"type\":\"cmd\",\"seq\":0,\"tick\":5,\"name\":"
             "\"pause\"}\n"
             "{\"type\":\"cmd\",\"seq\":1,\"tick\":4,\"name\":"
             "\"resume\"}\n",
         "ticks going backwards"},
        {std::string(header) + "{\"type\":\"end\",\"tick\":9}\n" +
             "{\"type\":\"end\",\"tick\":10}\n",
         "record after end"},
        {"{\"type\":\"header\",\"version\":2,\"config\":{}}\n",
         "unsupported version"},
        {"{\"type\":\"header\",\"version\":1,\"config\":"
         "{\"budget\":0}}\n",
         "zero budget"},
        {"{\"type\":\"header\",\"version\":1,\"config\":"
         "{\"budget\":-0.5}}\n",
         "negative budget"},
    };
    for (const auto &c : cases) {
        std::string error;
        EXPECT_FALSE(parseSession(c.text, &error).has_value())
            << c.why;
        EXPECT_FALSE(error.empty()) << c.why;
        EXPECT_EQ(error.find('\n'), std::string::npos) << c.why;
    }
}

TEST(SessionCodec, RejectsRemovedBaselineBackend)
{
    // Sessions may only name a backend that still exists; the
    // pre-optimization "baseline" engine is gone.
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.ok());
    const std::string path = tmp.path("session.jsonl");
    const auto writeHeader = [&](const char *backend) {
        std::ofstream out(path);
        out << "{\"type\":\"header\",\"version\":1,\"tool\":\"padd\","
               "\"config\":{\"backend\":\""
            << backend << "\"},\"rules\":\"\"}\n"
            << "{\"type\":\"end\",\"tick\":10}\n";
    };
    std::string error;
    writeHeader("optimized");
    ASSERT_TRUE(readSessionFile(path, &error).has_value()) << error;

    writeHeader("baseline");
    EXPECT_FALSE(readSessionFile(path, &error).has_value());
    EXPECT_NE(error.find("unknown backend"), std::string::npos) << error;
}

TEST(SessionCodec, MissingEndIsReplayableUpToLastCommand)
{
    const std::string text =
        "{\"type\":\"header\",\"version\":1,\"config\":{},"
        "\"rules\":\"\"}\n"
        "{\"type\":\"cmd\",\"seq\":0,\"tick\":777,\"name\":"
        "\"shutdown\"}\n";
    std::string error;
    const auto log = parseSession(text, &error);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_EQ(log->endTick, 777);
}

TEST(SessionCodec, AttackSpecDefaultsAndValidation)
{
    std::string error;
    const auto defaults = parseAttackSpec("{}", &error);
    ASSERT_TRUE(defaults.has_value()) << error;
    EXPECT_EQ(defaults->nodes, 4);
    EXPECT_EQ(defaults->racks, 8);
    EXPECT_DOUBLE_EQ(defaults->durationSec, 1500.0);

    EXPECT_FALSE(
        parseAttackSpec("{\"racks\": 23}", &error).has_value());
    EXPECT_FALSE(
        parseAttackSpec("{\"nodes\": 0}", &error).has_value());
    EXPECT_FALSE(
        parseAttackSpec("{\"virus\": \"gpu\"}", &error).has_value());
    EXPECT_FALSE(
        parseAttackSpec("{\"bogus\": 1}", &error).has_value());

    const auto spec = parseAttackSpec(
        "{\"virus\":\"io\",\"style\":\"sparse\",\"racks\":22}",
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    const auto again = parseAttackSpec(renderAttackSpec(*spec));
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->virus, attack::VirusKind::IoIntensive);
    EXPECT_EQ(again->style, attack::AttackStyle::Sparse);
    EXPECT_EQ(again->racks, 22);
}

// ---------------------------------------------------------------------
// Control channel
// ---------------------------------------------------------------------

TEST(ControlChannel, RequestsAreServedInOrder)
{
    ControlServer server(0, [](const std::string &line) {
        return "ack:" + line;
    });
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_GT(server.port(), 0);

    ControlClient client;
    ASSERT_TRUE(client.connect(server.port(), &error)) << error;
    for (int i = 0; i < 5; ++i) {
        const auto response =
            client.request("{\"n\":" + std::to_string(i) + "}");
        ASSERT_TRUE(response.has_value());
        EXPECT_EQ(*response,
                  "ack:{\"n\":" + std::to_string(i) + "}");
    }
    client.close();

    // Connections are served one after another; a new client works.
    ControlClient second;
    ASSERT_TRUE(second.connect(server.port(), &error)) << error;
    const auto response = second.request("ping");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(*response, "ack:ping");
    server.stop();
}

TEST(ControlChannel, BindFailureIsAOneLineError)
{
    ControlServer first(0, [](const std::string &) {
        return std::string("{}");
    });
    std::string error;
    ASSERT_TRUE(first.start(&error)) << error;

    ControlServer second(first.port(), [](const std::string &) {
        return std::string("{}");
    });
    EXPECT_FALSE(second.start(&error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    EXPECT_FALSE(second.running());
    first.stop();
}

// ---------------------------------------------------------------------
// Daemon end to end: live session, then byte-identical replay
// ---------------------------------------------------------------------

TEST(ServiceDaemon, LiveSessionReplaysByteIdentically)
{
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    DaemonOptions opts;
    opts.config.durationSec = 0.0; // run until shutdown
    opts.speed = 0.0;              // max
    opts.rulesText = defaultRulesText();
    ASSERT_FALSE(opts.rulesText.empty());
    opts.sessionPath = "svc_e2e_session.jsonl";
    opts.incidentsPath = "svc_e2e_live_incidents.jsonl";
    opts.statsJsonPath = "svc_e2e_live_stats.json";
    opts.promPath = "svc_e2e_live.prom";

    ServiceDaemon daemon(std::move(opts));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    ASSERT_GT(daemon.controlPort(), 0);
    ASSERT_GT(daemon.metricsPort(), 0);

    std::thread sim([&daemon] { daemon.run(); });

    ControlClient client;
    ASSERT_TRUE(client.connect(daemon.controlPort(), &error))
        << error;

    auto roundTrip = [&](const std::string &line) {
        const auto response = client.request(line);
        EXPECT_TRUE(response.has_value()) << line;
        EXPECT_TRUE(responseOk(*response))
            << line << " -> " << response.value_or("(none)");
        return response.value_or("{}");
    };

    const std::string status = roundTrip("{\"cmd\":\"status\"}");
    EXPECT_NE(status.find("\"scheme\":\"PAD\""), std::string::npos)
        << status;

    // Scrape the live endpoint while the sim thread is stepping —
    // the exposition must parse under the in-tree grammar checker.
    const std::string scrape =
        httpGet(daemon.metricsPort(), "/metrics");
    EXPECT_NE(scrape.find("pad_service_up 1"), std::string::npos);
    const auto split = scrape.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos);
    std::string verror;
    EXPECT_TRUE(telemetry::validatePromExposition(
        scrape.substr(split + 4), &verror))
        << verror;

    roundTrip("{\"cmd\":\"pause\"}");
    EXPECT_NE(roundTrip("{\"cmd\":\"status\"}")
                  .find("\"paused\":true"),
              std::string::npos);
    roundTrip("{\"cmd\":\"set-speed\",\"speed\":3600}");
    roundTrip("{\"cmd\":\"resume\"}");
    roundTrip("{\"cmd\":\"set-speed\",\"speed\":\"max\"}");
    const std::string attack = roundTrip(
        "{\"cmd\":\"inject-attack\",\"spec\":{\"racks\":2,"
        "\"duration_sec\":300}}");
    EXPECT_NE(attack.find("\"victim_rack\""), std::string::npos)
        << attack;

    // Malformed commands are rejected without being recorded.
    const auto bad = client.request("{\"cmd\":\"inject-attack\","
                                    "\"spec\":{\"racks\":99}}");
    ASSERT_TRUE(bad.has_value());
    EXPECT_FALSE(responseOk(*bad)) << *bad;
    const auto unknown = client.request("{\"cmd\":\"warp\"}");
    ASSERT_TRUE(unknown.has_value());
    EXPECT_FALSE(responseOk(*unknown)) << *unknown;

    roundTrip("{\"cmd\":\"shutdown\"}");
    sim.join();

    // After shutdown the command path answers with an error instead
    // of hanging.
    EXPECT_FALSE(
        responseOk(daemon.submitCommand("{\"cmd\":\"status\"}")));

    const DaemonResult &live = daemon.result();
    EXPECT_EQ(live.commands, 6u); // pause, 2x set-speed, resume,
                                  // inject-attack, shutdown
    EXPECT_EQ(live.attacks, 1u);
    EXPECT_GT(live.incidents, 0u);

    // The recorded session carries the default engine and exactly
    // the applied commands.
    EXPECT_NE(slurp("svc_e2e_session.jsonl").find("\"backend\":\"soa\""),
              std::string::npos);
    const auto log = readSessionFile("svc_e2e_session.jsonl", &error);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_EQ(log->config.backend, engine::BackendKind::Soa);
    ASSERT_EQ(log->commands.size(), 6u);
    EXPECT_EQ(log->commands[0].name, "pause");
    EXPECT_EQ(log->commands[1].name, "set-speed");
    EXPECT_EQ(log->commands[2].name, "resume");
    EXPECT_EQ(log->commands[3].name, "set-speed");
    EXPECT_EQ(log->commands[4].name, "inject-attack");
    EXPECT_EQ(log->commands[5].name, "shutdown");
    EXPECT_EQ(log->endTick, live.endTick);

    // The determinism contract: replay writes the same bytes.
    ReplayArtifacts artifacts;
    artifacts.incidentsPath = "svc_e2e_replay_incidents.jsonl";
    artifacts.statsJsonPath = "svc_e2e_replay_stats.json";
    artifacts.promPath = "svc_e2e_replay.prom";
    DaemonResult replayed;
    ASSERT_TRUE(replaySession(*log, artifacts, &error, &replayed))
        << error;
    EXPECT_EQ(replayed.endTick, live.endTick);
    EXPECT_EQ(replayed.attacks, live.attacks);
    EXPECT_EQ(replayed.incidents, live.incidents);
    EXPECT_EQ(slurp("svc_e2e_replay_incidents.jsonl"),
              slurp("svc_e2e_live_incidents.jsonl"));
    EXPECT_EQ(slurp("svc_e2e_replay_stats.json"),
              slurp("svc_e2e_live_stats.json"));
    EXPECT_EQ(slurp("svc_e2e_replay.prom"),
              slurp("svc_e2e_live.prom"));

    // A crash-cut session (end record lost) still replays, through
    // its last recorded input.
    std::string cut = slurp("svc_e2e_session.jsonl");
    const auto lastLine = cut.rfind("{\"type\":\"end\"");
    ASSERT_NE(lastLine, std::string::npos);
    cut.resize(lastLine);
    const auto cutLog = parseSession(cut, &error);
    ASSERT_TRUE(cutLog.has_value()) << error;
    EXPECT_EQ(cutLog->endTick, log->commands.back().tick);
    ASSERT_TRUE(replaySession(*cutLog, ReplayArtifacts{}, &error))
        << error;
}

TEST(ServiceDaemon, DurationLimitStopsWithoutEndpoints)
{
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    DaemonOptions opts;
    opts.config.durationSec = 1800.0;
    opts.speed = 0.0;
    opts.metricsPort = -1;
    opts.controlPort = -1;
    opts.statsJsonPath = "svc_duration_a.json";

    ServiceDaemon daemon(std::move(opts));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    EXPECT_EQ(daemon.controlPort(), -1);
    EXPECT_EQ(daemon.metricsPort(), -1);
    daemon.run();

    const Tick warmupEnd =
        kTicksPerDay + static_cast<Tick>(11.0 * kTicksPerHour);
    EXPECT_GE(daemon.result().endTick,
              warmupEnd + secondsToTicks(1800.0));
    EXPECT_EQ(daemon.result().commands, 0u);

    // Headless service runs are plain batch runs: a second identical
    // daemon produces the identical stats dump.
    DaemonOptions again;
    again.config.durationSec = 1800.0;
    again.speed = 0.0;
    again.metricsPort = -1;
    again.controlPort = -1;
    again.statsJsonPath = "svc_duration_b.json";
    ServiceDaemon twin(std::move(again));
    ASSERT_TRUE(twin.start(&error)) << error;
    twin.run();
    EXPECT_EQ(slurp("svc_duration_a.json"),
              slurp("svc_duration_b.json"));
}

TEST(ServiceDaemon, OptimizedSessionReplaysOnScalarEngine)
{
    // A session recorded on the scalar engine names it in its header
    // and replays on it: the replay matches the live stats, and the
    // same session forced onto SoA does not.
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    DaemonOptions opts;
    opts.config.backend = engine::BackendKind::Optimized;
    opts.config.durationSec = 600.0;
    opts.speed = 0.0;
    opts.metricsPort = -1;
    opts.controlPort = -1;
    opts.sessionPath = "svc_opt_session.jsonl";
    opts.statsJsonPath = "svc_opt_live.json";
    ServiceDaemon daemon(std::move(opts));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    daemon.run();

    EXPECT_NE(slurp("svc_opt_session.jsonl")
                  .find("\"backend\":\"optimized\""),
              std::string::npos);
    auto log = readSessionFile("svc_opt_session.jsonl", &error);
    ASSERT_TRUE(log.has_value()) << error;
    ASSERT_EQ(log->config.backend, engine::BackendKind::Optimized);

    ReplayArtifacts scalar;
    scalar.statsJsonPath = "svc_opt_replay.json";
    ASSERT_TRUE(replaySession(*log, scalar, &error)) << error;
    EXPECT_EQ(slurp("svc_opt_replay.json"), slurp("svc_opt_live.json"));

    log->config.backend = engine::BackendKind::Soa;
    ReplayArtifacts soa;
    soa.statsJsonPath = "svc_opt_as_soa.json";
    ASSERT_TRUE(replaySession(*log, soa, &error)) << error;
    EXPECT_NE(slurp("svc_opt_as_soa.json"), slurp("svc_opt_live.json"));
}

TEST(ServiceDaemon, StartFailsCleanlyOnBadInputs)
{
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    // Occupied control port.
    ControlServer squatter(0, [](const std::string &) {
        return std::string("{}");
    });
    std::string error;
    ASSERT_TRUE(squatter.start(&error)) << error;
    DaemonOptions taken;
    taken.controlPort = squatter.port();
    ServiceDaemon daemon(std::move(taken));
    EXPECT_FALSE(daemon.start(&error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
    squatter.stop();

    // Incidents stream without rules is a configuration error.
    DaemonOptions incidents;
    incidents.incidentsPath = "svc_never_written.jsonl";
    ServiceDaemon noRules(std::move(incidents));
    EXPECT_FALSE(noRules.start(&error));
    EXPECT_FALSE(error.empty());

    // Malformed rules fail before anything runs.
    DaemonOptions badRules;
    badRules.rulesText = "{\"rules\": [{\"name\": \"x\"}]}";
    ServiceDaemon bad(std::move(badRules));
    EXPECT_FALSE(bad.start(&error));
    EXPECT_NE(error.find("alert rules"), std::string::npos) << error;
}

TEST(PaddCli, HostileBudgetIsRejectedAtTheBoundary)
{
    // A budget the engine cannot run with is a usage error on the
    // command line and a parse error on replay -- never an engine
    // assertion (exit 134).
    test::ScopedTempDir tmp;
    ASSERT_TRUE(tmp.enter());
    const auto padd = [](const std::string &args) {
        const std::string cmd = std::string(PADD_BIN) + " " + args +
                                " > /dev/null 2> padd_err.txt";
        const int rc = std::system(cmd.c_str());
        return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    };
    const auto slurp = [] {
        std::ifstream in("padd_err.txt");
        std::stringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };
    for (const char *budget : {"0", "-1", "abc"}) {
        EXPECT_EQ(padd(std::string("--budget ") + budget +
                       " --speed max --duration 10"),
                  2)
            << budget;
        const std::string err = slurp();
        EXPECT_EQ(err.rfind("padd: budget", 0), 0u) << err;
        EXPECT_NE(err.find("usage: padd"), std::string::npos) << err;
    }

    {
        std::ofstream out("session.jsonl");
        out << "{\"type\":\"header\",\"version\":1,\"tool\":\"padd\","
               "\"config\":{\"budget\":0},\"rules\":\"\"}\n"
            << "{\"type\":\"end\",\"tick\":10}\n";
    }
    EXPECT_EQ(padd("--replay session.jsonl"), 1);
    const std::string err = slurp();
    EXPECT_NE(err.find("budget"), std::string::npos) << err;
}

TEST(ServiceDaemon, RequestShutdownStopsALiveLoop)
{
    DaemonOptions opts;
    opts.speed = 3600.0; // paced, so the loop is actually waiting
    opts.metricsPort = -1;
    opts.controlPort = -1;
    ServiceDaemon daemon(std::move(opts));
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::thread sim([&daemon] { daemon.run(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    daemon.requestShutdown();
    sim.join();
    EXPECT_GT(daemon.result().endTick, 0);
}
