/**
 * @file
 * The padd service daemon: a live, wall-clock-paced PAD simulation
 * with streaming observability and deterministic session
 * record/replay (DESIGN.md §13).
 *
 * ServiceDaemon drives one ClusterEngine coarse step at a time,
 * paced against the wall clock by a configurable speed factor
 * (sim-seconds per wall-second; 0 = as fast as the hardware
 * allows). While the run is live it:
 *
 *  - serves the Prometheus endpoint continuously (MetricsHttpServer
 *    rendering the live TelemetryHub plus pad_service_* gauges);
 *  - evaluates the alert rules online and streams each incident to
 *    incidents.jsonl the moment its flight-recorder context seals
 *    (line-buffered, so `tail -f` and `padtrace incidents --follow`
 *    see whole records);
 *  - accepts control commands over a localhost line-JSON socket:
 *    status, pause, resume, set-speed, inject-attack, shutdown.
 *
 * Determinism contract: commands are applied only on the simulation
 * thread, at step boundaries, and every applied command is stamped
 * with its sim tick into the session record (service/session.h).
 * Wall time never reaches the simulation — it only decides when the
 * next step runs — so replaySession() re-executing the recorded
 * session produces byte-identical incidents.jsonl, stats JSON and
 * Prometheus dumps to the live run.
 *
 * Threading: the simulation (run()) owns the engine, alert engine
 * and all files. The control thread hands commands over through
 * submitCommand(), which blocks until the simulation thread applied
 * the command and built the response. The metrics thread reads only
 * the mutex-guarded hub, service atomics, and the stats registry
 * pointer published (once, release/acquire) at shutdown.
 */

#ifndef PAD_SERVICE_DAEMON_H
#define PAD_SERVICE_DAEMON_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "service/session.h"
#include "sim/stats_registry.h"
#include "util/types.h"

namespace pad::telemetry {
class MetricsHttpServer;
class RemoteWriteShipper;
} // namespace pad::telemetry

namespace pad::service {

/** Everything a daemon run needs beyond the sim configuration. */
struct DaemonOptions {
    ServiceConfig config;
    /** Alert rules JSON text (verbatim); empty = alerting off. */
    std::string rulesText;
    /** Sim-seconds per wall-second; 0 = max speed (no pacing). */
    double speed = 1.0;
    /** Metrics endpoint port (0 = ephemeral, -1 = off). */
    int metricsPort = 0;
    /** Control endpoint port (0 = ephemeral, -1 = off). */
    int controlPort = 0;
    /** Session record path; empty = don't record. */
    std::string sessionPath;
    /** Streaming incidents path (requires rules); empty = off. */
    std::string incidentsPath;
    /** Final stats registry dump; empty = off. */
    std::string statsJsonPath;
    /** Final Prometheus exposition dump; empty = off. */
    std::string promPath;
    /** Run manifest (includes the session pointer); empty = off. */
    std::string manifestPath;
    /** Remote-write push target (HOST:PORT); empty = push off. */
    std::string pushTo;
    /** Sim-time push snapshot interval in seconds. */
    double pushIntervalS = 60.0;
    /** Push spool (WAL) directory; empty = no disk spill. */
    std::string pushSpoolDir;
    /** Source label for pushed series (fleet.<source>.*). */
    std::string pushSource = "padd";
};

/** Summary of a completed session (live or replayed). */
struct DaemonResult {
    Tick endTick = 0;
    /** Attacks injected over the session. */
    std::uint64_t attacks = 0;
    /** Incidents sealed (streamed) over the session. */
    std::uint64_t incidents = 0;
    /** External commands applied (status queries excluded). */
    std::uint64_t commands = 0;
};

class SessionRuntime;

class ServiceDaemon
{
  public:
    explicit ServiceDaemon(DaemonOptions opts);
    ~ServiceDaemon();

    ServiceDaemon(const ServiceDaemon &) = delete;
    ServiceDaemon &operator=(const ServiceDaemon &) = delete;

    /**
     * Build the simulation, open every output file and bind both
     * endpoints. Any failure — a bad rules document, an unwritable
     * path, a port that cannot be bound — is reported as a one-line
     * @p error and the daemon must not be run: a service whose
     * scrape or control endpoint is silently dead is worse than one
     * that fails fast.
     */
    bool start(std::string *error = nullptr);

    /**
     * The blocking service loop: warm the fleet up to the
     * configured hour, then step in wall-clock pace until a
     * shutdown command, requestShutdown(), or the configured
     * duration limit; finally finalize alerts, write artifacts and
     * stop both endpoints. Call exactly once, after start().
     */
    void run();

    /** Resolved endpoint ports, valid after start(). */
    int controlPort() const;
    int metricsPort() const;

    /**
     * Hand one command line to the simulation thread and wait for
     * its response line. Thread-safe; used by the control server
     * and callable directly (tests, in-process drivers).
     */
    std::string submitCommand(const std::string &line);

    /** Ask the loop to stop (signal handlers, tests). Thread-safe. */
    void requestShutdown();

    /** Session summary, valid after run() returns. */
    const DaemonResult &result() const { return result_; }

  private:
    struct Pending {
        std::string line;
        std::promise<std::string> response;
    };

    void processPending();
    std::string applyCommand(const std::string &line);
    std::string renderMetrics() const;

    DaemonOptions opts_;
    std::unique_ptr<SessionRuntime> runtime_;
    std::unique_ptr<class ControlServer> control_;
    std::unique_ptr<telemetry::MetricsHttpServer> metrics_;
    // Declared after runtime_: destroyed first, so the shipper can
    // never outlive the hub it snapshots.
    std::unique_ptr<telemetry::RemoteWriteShipper> shipper_;
    std::unique_ptr<SessionWriter> session_;

    // Command hand-off: control thread -> simulation thread.
    std::mutex qmu_;
    std::condition_variable qcv_;
    std::deque<std::shared_ptr<Pending>> queue_;
    bool stopped_ = false;

    // Live state owned by the simulation thread.
    bool paused_ = false;
    double speed_ = 1.0;
    bool shutdownCmd_ = false;
    /** Set by commands that invalidate the pacing anchor. */
    bool reanchor_ = false;
    std::uint64_t seq_ = 0;
    std::atomic<bool> shutdownRequested_{false};

    // Scrape-visible mirrors (written by the simulation thread,
    // read by the metrics thread).
    std::atomic<std::int64_t> tickGauge_{0};
    std::atomic<bool> pausedGauge_{false};
    std::atomic<double> speedGauge_{1.0};
    std::atomic<std::uint64_t> attacksGauge_{0};
    std::atomic<std::uint64_t> incidentsGauge_{0};
    std::atomic<const sim::StatsRegistry *> scrapeStats_{nullptr};

    DaemonResult result_;
    bool started_ = false;
    bool ran_ = false;
};

/** Replay artifact destinations (any may be empty = skip). */
struct ReplayArtifacts {
    std::string incidentsPath;
    std::string statsJsonPath;
    std::string promPath;
    /**
     * Optional remote-write target: the replay re-ships the exact
     * batch stream the live run shipped (push batches are cut by sim
     * tick, so a receiver fed from two replays of one session merges
     * byte-identically).
     */
    std::string pushTo;
    double pushIntervalS = 60.0;
    std::string pushSpoolDir;
    std::string pushSource = "padd";
};

/**
 * Re-execute a recorded session at max speed, with no endpoints and
 * no pacing: warmup, then each recorded command applied at exactly
 * its recorded tick, then run out to the recorded end tick. Writes
 * the same artifacts the live run wrote — byte-identical, the
 * replay determinism contract. Returns false with a one-line
 * @p error on a malformed or inconsistent session.
 */
bool replaySession(const SessionLog &log, const ReplayArtifacts &out,
                   std::string *error = nullptr,
                   DaemonResult *result = nullptr);

} // namespace pad::service

#endif // PAD_SERVICE_DAEMON_H
