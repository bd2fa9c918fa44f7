#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "alert/engine.h"
#include "alert/incident.h"
#include "alert/rule.h"
#include "attack/attacker.h"
#include "attack/virus_trace.h"
#include "core/config.h"
#include "core/datacenter.h"
#include "engine/cluster_engine.h"
#include "obs/manifest.h"
#include "obs/tracer.h"
#include "service/control.h"
#include "sim/stats_registry.h"
#include "telemetry/http.h"
#include "telemetry/hub.h"
#include "telemetry/prom.h"
#include "telemetry/remote_write.h"
#include "trace/synthetic_trace.h"
#include "trace/workload.h"
#include "util/json.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/types.h"

namespace pad::service {

/**
 * The simulation side of a session, shared verbatim by the live
 * daemon and replaySession(): workload + engine + hub + alert engine
 * + streamed incidents + the finalize/artifact path. Everything here
 * is driven from exactly one thread (the sim thread live, the caller
 * in replay); the hub alone is safe to read concurrently (scrapes).
 * Keeping both modes on this one class is what makes byte-identical
 * replay a structural property instead of a test assertion.
 */
class SessionRuntime
{
  public:
    SessionRuntime(ServiceConfig config, std::string rulesText)
        : config_(std::move(config)), rulesText_(std::move(rulesText))
    {
    }

    bool init(std::string *error)
    {
        if (!rulesText_.empty()) {
            std::string what;
            auto rules = alert::parseRules(rulesText_, &what);
            if (!rules) {
                if (error)
                    *error = "alert rules: " + what;
                return false;
            }
            alerts_ = std::make_unique<alert::AlertEngine>(
                std::move(*rules));
            alerts_->setIncidentSink([this](
                                         const alert::Incident &inc) {
                ++sealed_;
                if (incidents_.is_open())
                    alert::writeIncidentLine(incidents_, inc);
            });
            alertFeed_ = std::make_unique<alert::AlertTraceSink>(
                *alerts_, nullptr);
        }

        trace::SyntheticTraceConfig tc;
        tc.machines = 220;
        tc.days = config_.days;
        tc.seed = config_.seed;
        events_ = trace::SyntheticGoogleTrace(tc).generate();
        workload_.emplace(events_, tc.machines,
                          static_cast<Tick>(tc.days * kTicksPerDay));

        cfg_.scheme = config_.scheme;
        cfg_.budgetFraction = config_.budget;
        cfg_.clusterBudgetFraction = config_.clusterBudget;
        cfg_.deb = core::defaultDebConfig(cfg_.rackNameplate());
        cfg_.seed = config_.seed;
        cfg_.detectorResponse = config_.detector;
        engine_ = std::make_unique<engine::ClusterEngine>(cfg_,
                                                          &*workload_);

        // The daemon exists to be observed, so the hub is always on
        // (live mode serves it over /metrics; replay needs it anyway
        // to drive the alert engine identically).
        engine_->setTelemetry(&hub_);
        if (alerts_)
            hub_.setListener(alerts_.get());
        return true;
    }

    bool openIncidents(const std::string &path, std::string *error)
    {
        incidents_.open(path);
        if (!incidents_) {
            if (error)
                *error = "cannot open incidents file: " + path;
            return false;
        }
        return true;
    }

    /** Alert-engine trace feed; bind a TraceScope on the sim thread. */
    obs::TraceSink *traceFeed() { return alertFeed_.get(); }

    void warmup()
    {
        engine_->runCoarseUntil(
            kTicksPerDay +
            static_cast<Tick>(config_.hour * kTicksPerHour));
    }

    void stepCoarse() { engine_->stepCoarse(); }

    Tick now() const { return engine_->now(); }

    Tick coarseStep() const { return cfg_.coarseStep; }

    telemetry::TelemetryHub &hub() { return hub_; }

    std::uint64_t incidentsSealed() const { return sealed_; }

    std::uint64_t attackCount() const
    {
        return static_cast<std::uint64_t>(attacks_.size());
    }

    struct AttackOutcome {
        int victimRack = 0;
        int racksAttacked = 0;
        double survivalSec = 0.0;
        double throughput = 0.0;
        int spikesLaunched = 0;
    };

    /**
     * Run one injected attack window from the current state as a
     * single blocking engine call. Victim selection replicates
     * padsim: the primary rack at the requested load percentile,
     * extras at 5-point decrements.
     */
    AttackOutcome injectAttack(const AttackSpec &spec)
    {
        attack::AttackerConfig ac;
        ac.controlledNodes = spec.nodes;
        ac.kind = spec.virus;
        ac.train = attack::spikeTrainFor(spec.style, spec.virus);
        ac.prepareSec = 60.0;
        ac.maxDrainSec = 600.0;
        ac.seed = spec.seed;
        attack::TwoPhaseAttacker attacker(ac);

        const Tick from = engine_->now();
        const Tick to = from + secondsToTicks(spec.durationSec);
        core::AttackScenario sc;
        sc.targetPolicy = core::TargetPolicy::Fixed;
        sc.targetRack = core::rackByLoadPercentile(
            *workload_, cfg_, from, to, spec.victimPct);
        for (int i = 1; i < spec.racks; ++i) {
            const double pct =
                std::max(0.0, spec.victimPct - 5.0 * i);
            const int rack = core::rackByLoadPercentile(
                *workload_, cfg_, from, to, pct);
            if (rack != sc.targetRack &&
                std::find(sc.extraVictimRacks.begin(),
                          sc.extraVictimRacks.end(),
                          rack) == sc.extraVictimRacks.end())
                sc.extraVictimRacks.push_back(rack);
        }
        sc.durationSec = spec.durationSec;

        const auto out = engine_->runAttack(attacker, sc);

        AttackOutcome summary;
        summary.victimRack = sc.targetRack;
        summary.racksAttacked =
            1 + static_cast<int>(sc.extraVictimRacks.size());
        summary.survivalSec = out.survivalSec;
        summary.throughput = out.throughput;
        summary.spikesLaunched = out.spikesLaunched;
        attacks_.push_back(summary);
        return summary;
    }

    /**
     * Close the session at @p endTick: detach the alert listener,
     * seal every remaining incident (streaming them through the
     * sink), and build the stats registry — engine stats plus the
     * service.* summary, all pure functions of the sim.
     */
    void finalize(Tick endTick, std::uint64_t commands)
    {
        hub_.setListener(nullptr);
        if (alerts_)
            alerts_->finalize(endTick);

        engine_->exportStats(stats_);
        stats_
            .registerScalar("service.end_tick",
                            "sim tick the session ended at")
            .set(static_cast<double>(endTick));
        stats_
            .registerCounter("service.commands",
                             "control commands applied")
            .add(commands);
        stats_
            .registerCounter("service.attacks",
                             "attack scenarios injected")
            .add(attackCount());
        stats_
            .registerScalar("service.incidents",
                            "alert incidents sealed")
            .set(static_cast<double>(sealed_));
        for (std::size_t i = 0; i < attacks_.size(); ++i) {
            const std::string prefix =
                "service.attack" + std::to_string(i);
            const AttackOutcome &a = attacks_[i];
            stats_
                .registerScalar(prefix + ".victim_rack",
                                "primary victim rack")
                .set(static_cast<double>(a.victimRack));
            stats_
                .registerScalar(prefix + ".racks_attacked",
                                "victim racks targeted")
                .set(static_cast<double>(a.racksAttacked));
            stats_
                .registerScalar(prefix + ".survival_sec",
                                "attack start to first overload")
                .set(a.survivalSec);
            stats_
                .registerScalar(prefix + ".throughput",
                                "benign throughput over the window")
                .set(a.throughput);
            stats_
                .registerCounter(prefix + ".spikes_launched",
                                 "hidden spikes launched in Phase II")
                .add(static_cast<std::uint64_t>(
                    std::max(0, a.spikesLaunched)));
        }
        if (alerts_)
            alertStates_ = alerts_->ruleStates();
        finalized_ = true;
    }

    /** Finalized registry (scrape publication, artifacts). */
    const sim::StatsRegistry &stats() const { return stats_; }

    bool writeStatsJson(const std::string &path, std::string *error)
    {
        std::ofstream os(path);
        if (!os) {
            if (error)
                *error = "cannot write stats JSON to " + path;
            return false;
        }
        stats_.dumpJson(os);
        os << "\n";
        return true;
    }

    bool writePromDump(const std::string &path, std::string *error)
    {
        std::ofstream os(path);
        if (!os) {
            if (error)
                *error = "cannot write Prometheus exposition to " +
                         path;
            return false;
        }
        telemetry::PromWriter().write(
            os, &stats_, &hub_,
            alerts_ ? &alertStates_ : nullptr);
        return true;
    }

  private:
    ServiceConfig config_;
    std::string rulesText_;
    std::vector<trace::TaskEvent> events_;
    std::optional<trace::Workload> workload_;
    core::DataCenterConfig cfg_;
    std::unique_ptr<engine::ClusterEngine> engine_;
    telemetry::TelemetryHub hub_;
    std::unique_ptr<alert::AlertEngine> alerts_;
    std::unique_ptr<alert::AlertTraceSink> alertFeed_;
    std::ofstream incidents_;
    std::uint64_t sealed_ = 0;
    std::vector<AttackOutcome> attacks_;
    sim::StatsRegistry stats_;
    std::vector<telemetry::AlertStateSample> alertStates_;
    bool finalized_ = false;
};

namespace {

std::string
errorResponse(const std::string &what)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject()
        .key("ok").value(false)
        .key("error").value(what)
        .endObject();
    return os.str();
}

/**
 * Build and start a remote-write shipper for @p pushTo (live daemon
 * and replay share this). Returns nullptr with a one-line @p error
 * on a bad target or unusable spool directory.
 */
std::unique_ptr<telemetry::RemoteWriteShipper>
makePushShipper(const std::string &pushTo, double intervalS,
                const std::string &spoolDir, const std::string &source,
                std::uint64_t seed, const telemetry::TelemetryHub *hub,
                std::string *error)
{
    std::string what;
    const auto target = telemetry::parseHostPort(pushTo, &what);
    if (!target) {
        if (error)
            *error = "push target: " + what;
        return nullptr;
    }
    telemetry::RemoteWriteOptions rw;
    rw.host = target->first;
    rw.port = target->second;
    rw.source = source;
    rw.intervalS = intervalS;
    rw.spoolDir = spoolDir;
    // Decorrelate reconnect jitter across a fleet launched from one
    // seed sweep; the jitter never reaches the simulation.
    rw.jitterSeed = seed * 0x9e3779b97f4a7c15ULL + 1;
    auto shipper = std::make_unique<telemetry::RemoteWriteShipper>(
        std::move(rw), hub);
    if (!shipper->start(&what)) {
        if (error)
            *error = what;
        return nullptr;
    }
    return shipper;
}

} // namespace

ServiceDaemon::ServiceDaemon(DaemonOptions opts)
    : opts_(std::move(opts))
{
}

ServiceDaemon::~ServiceDaemon()
{
    if (control_)
        control_->stop();
    if (metrics_)
        metrics_->stop();
}

bool
ServiceDaemon::start(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };

    if (!opts_.incidentsPath.empty() && opts_.rulesText.empty())
        return fail("incidents stream requires alert rules");

    runtime_ = std::make_unique<SessionRuntime>(opts_.config,
                                                opts_.rulesText);
    std::string what;
    if (!runtime_->init(&what))
        return fail(what);
    if (!opts_.incidentsPath.empty() &&
        !runtime_->openIncidents(opts_.incidentsPath, &what))
        return fail(what);

    if (!opts_.sessionPath.empty()) {
        session_ = std::make_unique<SessionWriter>(opts_.sessionPath);
        if (!session_->ok())
            return fail("cannot open session file: " +
                        opts_.sessionPath);
    }

    speed_ = std::max(0.0, opts_.speed);
    speedGauge_.store(speed_, std::memory_order_relaxed);

    if (!opts_.pushTo.empty()) {
        shipper_ = makePushShipper(
            opts_.pushTo, opts_.pushIntervalS, opts_.pushSpoolDir,
            opts_.pushSource, opts_.config.seed, &runtime_->hub(),
            &what);
        if (!shipper_)
            return fail("cannot push metrics: " + what);
    }

    if (opts_.metricsPort >= 0) {
        metrics_ = std::make_unique<telemetry::MetricsHttpServer>(
            opts_.metricsPort, [this] { return renderMetrics(); });
        if (!metrics_->start(&what))
            return fail("cannot serve metrics: " + what);
    }
    if (opts_.controlPort >= 0) {
        control_ = std::make_unique<ControlServer>(
            opts_.controlPort, [this](const std::string &line) {
                return submitCommand(line);
            });
        if (!control_->start(&what))
            return fail("cannot serve control: " + what);
    }
    started_ = true;
    return true;
}

int
ServiceDaemon::controlPort() const
{
    return control_ ? control_->port() : -1;
}

int
ServiceDaemon::metricsPort() const
{
    return metrics_ ? metrics_->port() : -1;
}

std::string
ServiceDaemon::submitCommand(const std::string &line)
{
    auto pending = std::make_shared<Pending>();
    pending->line = line;
    std::future<std::string> response =
        pending->response.get_future();
    {
        std::lock_guard<std::mutex> lock(qmu_);
        if (stopped_)
            return errorResponse("daemon stopped");
        queue_.push_back(pending);
    }
    qcv_.notify_all();
    return response.get();
}

void
ServiceDaemon::requestShutdown()
{
    // A plain atomic store, so signal handlers may call this. The
    // loop's waits are capped at 200ms, which bounds the latency.
    shutdownRequested_.store(true, std::memory_order_relaxed);
}

void
ServiceDaemon::run()
{
    if (!started_ || ran_)
        return;
    ran_ = true;

    // Curated trace events reach the alert engine via the
    // thread-local tracer; the scope must live on this (the sim)
    // thread.
    std::optional<obs::TraceScope> alertScope;
    if (runtime_->traceFeed())
        alertScope.emplace(runtime_->traceFeed());

    runtime_->warmup();
    tickGauge_.store(runtime_->now(), std::memory_order_relaxed);
    incidentsGauge_.store(runtime_->incidentsSealed(),
                          std::memory_order_relaxed);
    if (shipper_)
        shipper_->observe(runtime_->now()); // anchors the interval
    if (session_)
        session_->writeHeader(opts_.config, opts_.rulesText);

    const Tick limitTick =
        opts_.config.durationSec > 0.0
            ? runtime_->now() + secondsToTicks(opts_.config.durationSec)
            : kTickNever;

    using Clock = std::chrono::steady_clock;
    // Pacing anchor: wall time catches up to sim time from here.
    // Re-anchored on resume / set-speed / after an injected attack,
    // so bursts of sim progress are never "owed" back as stalls.
    Clock::time_point anchorWall = Clock::now();
    Tick anchorSim = runtime_->now();

    for (;;) {
        processPending();
        if (reanchor_) {
            anchorWall = Clock::now();
            anchorSim = runtime_->now();
            reanchor_ = false;
        }
        if (shutdownCmd_ ||
            shutdownRequested_.load(std::memory_order_relaxed))
            break;
        if (limitTick != kTickNever && runtime_->now() >= limitTick)
            break;

        if (paused_) {
            std::unique_lock<std::mutex> lock(qmu_);
            qcv_.wait_for(lock, std::chrono::milliseconds(50),
                          [&] { return !queue_.empty(); });
            continue;
        }

        if (speed_ > 0.0) {
            const double aheadSec = ticksToSeconds(
                runtime_->now() + runtime_->coarseStep() - anchorSim);
            const auto deadline =
                anchorWall +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(aheadSec / speed_));
            const auto now = Clock::now();
            if (now < deadline) {
                // Wait in <=200ms slices so an arriving command, a
                // set-speed, or a shutdown request is honored
                // promptly even when a step is minutes of wall time.
                std::unique_lock<std::mutex> lock(qmu_);
                qcv_.wait_until(
                    lock,
                    std::min(deadline,
                             now + std::chrono::milliseconds(200)),
                    [&] { return !queue_.empty(); });
                continue;
            }
        }

        runtime_->stepCoarse();
        tickGauge_.store(runtime_->now(), std::memory_order_relaxed);
        incidentsGauge_.store(runtime_->incidentsSealed(),
                              std::memory_order_relaxed);
        if (shipper_)
            shipper_->observe(runtime_->now());
    }

    const Tick endTick = runtime_->now();
    runtime_->finalize(endTick, result_.commands);
    result_.endTick = endTick;
    result_.attacks = runtime_->attackCount();
    result_.incidents = runtime_->incidentsSealed();
    tickGauge_.store(endTick, std::memory_order_relaxed);
    incidentsGauge_.store(result_.incidents,
                          std::memory_order_relaxed);
    // Publish the finalized registry for late scrapes; released
    // exactly once, never written again.
    scrapeStats_.store(&runtime_->stats(),
                       std::memory_order_release);
    // Flush the push pipeline while the endpoints are still up: one
    // final snapshot, the stats dump, then a bounded drain.
    if (shipper_)
        shipper_->finish(endTick, &runtime_->stats());

    std::string what;
    if (!opts_.statsJsonPath.empty() &&
        !runtime_->writeStatsJson(opts_.statsJsonPath, &what))
        warn("padd: {}", what);
    if (!opts_.promPath.empty() &&
        !runtime_->writePromDump(opts_.promPath, &what))
        warn("padd: {}", what);
    if (!opts_.manifestPath.empty()) {
        obs::RunManifest manifest;
        manifest.tool = "padd";
        manifest.experiment = core::schemeName(opts_.config.scheme);
        manifest.seed = opts_.config.seed;
        manifest.config = {
            {"scheme",
             std::string(core::schemeName(opts_.config.scheme))},
            {"backend", engine::kEngineName},
            {"budget", std::to_string(opts_.config.budget)},
            {"cluster_budget",
             std::to_string(opts_.config.clusterBudget)},
            {"hour", std::to_string(opts_.config.hour)},
            {"days", std::to_string(opts_.config.days)},
            {"duration_sec",
             std::to_string(opts_.config.durationSec)},
            {"detector", opts_.config.detector ? "true" : "false"},
        };
        manifest.statsJsonFile = opts_.statsJsonPath;
        manifest.statsJson = runtime_->stats().dumpJsonString();
        manifest.sessionFile = opts_.sessionPath;
        manifest.incidentsFile = opts_.incidentsPath;
        manifest.pushTarget = opts_.pushTo;
        manifest.pushSpoolDir = opts_.pushSpoolDir;
        obs::writeManifestFile(opts_.manifestPath, manifest);
    }
    if (session_)
        session_->writeEnd(endTick);

    // Refuse further commands, then answer any that raced in.
    {
        std::lock_guard<std::mutex> lock(qmu_);
        stopped_ = true;
        for (const auto &pending : queue_)
            pending->response.set_value(
                errorResponse("daemon stopped"));
        queue_.clear();
    }
    if (control_)
        control_->stop();
    if (metrics_)
        metrics_->stop();
}

void
ServiceDaemon::processPending()
{
    std::deque<std::shared_ptr<Pending>> batch;
    {
        std::lock_guard<std::mutex> lock(qmu_);
        batch.swap(queue_);
    }
    for (const auto &pending : batch)
        pending->response.set_value(applyCommand(pending->line));
}

std::string
ServiceDaemon::applyCommand(const std::string &line)
{
    std::string what;
    const auto node = parseJson(line, &what);
    if (!node)
        return errorResponse(what);
    if (!node->isObject())
        return errorResponse("command must be a JSON object");

    std::string name;
    const JsonValue *specNode = nullptr;
    const JsonValue *speedNode = nullptr;
    for (const auto &[key, value] : node->members) {
        if (key == "cmd") {
            if (!value.isString())
                return errorResponse("\"cmd\" must be a string");
            name = value.str;
        } else if (key == "spec") {
            specNode = &value;
        } else if (key == "speed") {
            speedNode = &value;
        } else {
            return errorResponse("unknown key \"" + key + "\"");
        }
    }
    if (name.empty())
        return errorResponse("missing \"cmd\"");

    const Tick tick = runtime_->now();
    auto record = [&](std::optional<AttackSpec> spec = std::nullopt,
                      double speed = 0.0) {
        if (session_) {
            SessionCommand cmd;
            cmd.seq = seq_++;
            cmd.tick = tick;
            cmd.name = name;
            cmd.spec = std::move(spec);
            cmd.speed = speed;
            session_->writeCommand(cmd);
        } else {
            ++seq_;
        }
        ++result_.commands;
    };
    auto respond = [&](auto fill) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginObject()
            .key("ok").value(true)
            .key("cmd").value(name)
            .key("tick").value(static_cast<std::int64_t>(tick));
        fill(w);
        w.endObject();
        return os.str();
    };

    if (name == "status") {
        // Observational: not recorded, not counted.
        return respond([&](JsonWriter &w) {
            w.key("sim_sec").value(ticksToSeconds(tick))
                .key("paused").value(paused_)
                .key("speed").value(speed_)
                .key("scheme")
                .value(core::schemeName(opts_.config.scheme))
                .key("backend")
                .value(engine::kEngineName)
                .key("attacks")
                .value(runtime_->attackCount())
                .key("incidents")
                .value(runtime_->incidentsSealed())
                .key("commands")
                .value(static_cast<std::uint64_t>(result_.commands));
        });
    }
    if (name == "pause") {
        if (specNode || speedNode)
            return errorResponse("pause takes no arguments");
        paused_ = true;
        pausedGauge_.store(true, std::memory_order_relaxed);
        record();
        return respond([](JsonWriter &) {});
    }
    if (name == "resume") {
        if (specNode || speedNode)
            return errorResponse("resume takes no arguments");
        paused_ = false;
        pausedGauge_.store(false, std::memory_order_relaxed);
        reanchor_ = true;
        record();
        return respond([](JsonWriter &) {});
    }
    if (name == "set-speed") {
        if (specNode)
            return errorResponse("set-speed takes no spec");
        double speed = -1.0;
        if (speedNode && speedNode->isNumber())
            speed = speedNode->number;
        else if (speedNode && speedNode->isString() &&
                 speedNode->str == "max")
            speed = 0.0;
        if (speed < 0.0)
            return errorResponse(
                "set-speed needs \"speed\": a number >= 0 "
                "(sim-seconds per wall-second; 0 or \"max\" = "
                "unpaced)");
        speed_ = speed;
        speedGauge_.store(speed, std::memory_order_relaxed);
        reanchor_ = true;
        record(std::nullopt, speed);
        return respond([&](JsonWriter &w) {
            w.key("speed").value(speed_);
        });
    }
    if (name == "inject-attack") {
        if (speedNode)
            return errorResponse("inject-attack takes no speed");
        AttackSpec spec; // padsim defaults unless a spec is given
        if (specNode) {
            const auto parsed =
                parseAttackSpecValue(*specNode, &what);
            if (!parsed)
                return errorResponse(what);
            spec = *parsed;
        }
        // Record before executing: a session cut short mid-attack
        // is still replayable through its last input.
        record(spec);
        const auto outcome = runtime_->injectAttack(spec);
        attacksGauge_.store(runtime_->attackCount(),
                            std::memory_order_relaxed);
        tickGauge_.store(runtime_->now(),
                         std::memory_order_relaxed);
        incidentsGauge_.store(runtime_->incidentsSealed(),
                              std::memory_order_relaxed);
        if (shipper_)
            shipper_->observe(runtime_->now());
        reanchor_ = true;
        return respond([&](JsonWriter &w) {
            w.key("victim_rack").value(outcome.victimRack)
                .key("racks_attacked").value(outcome.racksAttacked)
                .key("survival_sec").value(outcome.survivalSec)
                .key("throughput").value(outcome.throughput)
                .key("spikes_launched").value(outcome.spikesLaunched)
                .key("end_tick")
                .value(static_cast<std::int64_t>(runtime_->now()));
        });
    }
    if (name == "shutdown") {
        if (specNode || speedNode)
            return errorResponse("shutdown takes no arguments");
        record();
        shutdownCmd_ = true;
        return respond([](JsonWriter &) {});
    }
    return errorResponse("unknown command \"" + name + "\"");
}

std::string
ServiceDaemon::renderMetrics() const
{
    std::ostringstream os;
    os << "# HELP pad_service_up padd daemon liveness\n"
          "# TYPE pad_service_up gauge\n"
          "pad_service_up 1\n";
    os << "# HELP pad_service_sim_tick current simulation tick\n"
          "# TYPE pad_service_sim_tick gauge\n"
          "pad_service_sim_tick "
       << tickGauge_.load(std::memory_order_relaxed) << "\n";
    os << "# HELP pad_service_paused 1 while the sim loop is paused\n"
          "# TYPE pad_service_paused gauge\n"
          "pad_service_paused "
       << (pausedGauge_.load(std::memory_order_relaxed) ? 1 : 0)
       << "\n";
    os << "# HELP pad_service_speed sim-seconds per wall-second "
          "(0 = max)\n"
          "# TYPE pad_service_speed gauge\n"
          "pad_service_speed "
       << speedGauge_.load(std::memory_order_relaxed) << "\n";
    os << "# HELP pad_service_attacks_total attack scenarios "
          "injected\n"
          "# TYPE pad_service_attacks_total counter\n"
          "pad_service_attacks_total "
       << attacksGauge_.load(std::memory_order_relaxed) << "\n";
    os << "# HELP pad_service_incidents_total alert incidents "
          "sealed\n"
          "# TYPE pad_service_incidents_total counter\n"
          "pad_service_incidents_total "
       << incidentsGauge_.load(std::memory_order_relaxed) << "\n";
    if (shipper_)
        os << telemetry::RemoteWriteShipper::renderPromCounters(
            shipper_->counters());
    os << telemetry::PromWriter().render(
        scrapeStats_.load(std::memory_order_acquire),
        &runtime_->hub());
    return os.str();
}

bool
replaySession(const SessionLog &log, const ReplayArtifacts &out,
              std::string *error, DaemonResult *result)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };

    if (!out.incidentsPath.empty() && log.rules.empty())
        return fail("session has no alert rules, so there is no "
                    "incidents stream to replay");

    SessionRuntime rt(log.config, log.rules);
    std::string what;
    if (!rt.init(&what))
        return fail(what);
    if (!out.incidentsPath.empty() &&
        !rt.openIncidents(out.incidentsPath, &what))
        return fail(what);

    std::optional<obs::TraceScope> alertScope;
    if (rt.traceFeed())
        alertScope.emplace(rt.traceFeed());

    // Push batches are cut purely by sim tick, at the same points
    // the live loop cuts them (after warmup, every coarse step,
    // every injected attack), so a replay re-ships the live run's
    // exact batch stream.
    std::unique_ptr<telemetry::RemoteWriteShipper> shipper;
    if (!out.pushTo.empty()) {
        shipper = makePushShipper(out.pushTo, out.pushIntervalS,
                                  out.pushSpoolDir, out.pushSource,
                                  log.config.seed, &rt.hub(), &what);
        if (!shipper)
            return fail("cannot push metrics: " + what);
    }
    const auto observe = [&] {
        if (shipper)
            shipper->observe(rt.now());
    };

    rt.warmup();
    observe(); // anchors the interval, exactly like the live loop
    std::uint64_t commands = 0;
    for (const SessionCommand &cmd : log.commands) {
        while (rt.now() < cmd.tick) {
            rt.stepCoarse();
            observe();
        }
        if (rt.now() != cmd.tick)
            return fail("session cmd " + std::to_string(cmd.seq) +
                        " tick " + std::to_string(cmd.tick) +
                        " is not a step boundary of this "
                        "configuration (sim is at " +
                        std::to_string(rt.now()) + ")");
        if (cmd.name == "inject-attack") {
            rt.injectAttack(*cmd.spec);
            observe();
        }
        // pause / resume / set-speed shaped wall time only; in sim
        // time they are no-ops by construction.
        ++commands;
    }
    // A crash-cut session (no "end" record) reports an end tick of
    // its last command, which may predate warmup's end: replay at
    // least as far as the sim has already advanced.
    const Tick endTick = std::max(log.endTick, rt.now());
    while (rt.now() < endTick) {
        rt.stepCoarse();
        observe();
    }
    if (rt.now() != endTick)
        return fail("session end tick " + std::to_string(endTick) +
                    " is not reachable (sim is at " +
                    std::to_string(rt.now()) + ")");

    rt.finalize(endTick, commands);
    if (shipper)
        shipper->finish(endTick, &rt.stats());
    if (result) {
        result->endTick = endTick;
        result->attacks = rt.attackCount();
        result->incidents = rt.incidentsSealed();
        result->commands = commands;
    }
    if (!out.statsJsonPath.empty() &&
        !rt.writeStatsJson(out.statsJsonPath, &what))
        return fail(what);
    if (!out.promPath.empty() && !rt.writePromDump(out.promPath, &what))
        return fail(what);
    return true;
}

} // namespace pad::service
