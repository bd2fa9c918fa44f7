/**
 * @file
 * ReceiverServer: the aggregation end of the pad-rw-v2 push pipeline.
 *
 * Accepts persistent TCP connections from N RemoteWriteShippers,
 * ingests their length-prefixed batch frames, and merges every
 * sample into one TelemetryHub under `fleet.<source>.` prefixes —
 * the first real fleet-level view across daemons. "stats" batches
 * (final StatsRegistry dumps) merge into name-keyed scalar/counter
 * maps with replace semantics. The merged state re-renders as a
 * single aggregate Prometheus exposition, and a SampleListener (the
 * PR-5 alert engine) can watch the merged stream: all ingest happens
 * on the receiver's one service thread, which satisfies the alert
 * engine's single-recording-thread contract.
 *
 * Delivery is stop-and-wait per connection: every frame is answered
 * with `{"ok":true,"seq":N}`. Frames whose per-source sequence
 * number was already merged are acknowledged but skipped, so shipper
 * resends after a lost ack (or a spool re-replay) cannot
 * double-count.
 */

#ifndef PAD_TELEMETRY_RECEIVER_H
#define PAD_TELEMETRY_RECEIVER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/hub.h"
#include "telemetry/prom.h"

namespace pad::telemetry {

class ReceiverServer
{
  public:
    /** @p port 0 binds an ephemeral port (see port()). */
    explicit ReceiverServer(int port);
    ~ReceiverServer();

    ReceiverServer(const ReceiverServer &) = delete;
    ReceiverServer &operator=(const ReceiverServer &) = delete;

    /**
     * Bind 127.0.0.1:<port>, resolve the real port, and launch the
     * service thread. Fail-fast: false + one-line @p error when the
     * port is taken. No partial state on failure.
     */
    bool start(std::string *error = nullptr);

    /** Stop the service thread and close every connection. */
    void stop();

    bool running() const { return running_; }

    /** Bound ingest port (the requested one, or the ephemeral pick). */
    int port() const { return port_; }

    /**
     * The merged fleet hub. Thread-safe for summaries/snapshots; a
     * listener attached via setListener() sees every merged sample.
     */
    TelemetryHub &hub() { return hub_; }
    const TelemetryHub &hub() const { return hub_; }

    /** Forwarded to the merged hub (alert engine attach point). */
    void setListener(SampleListener *listener);

    /**
     * Aggregate Prometheus exposition: merged stats scalars/counters
     * and hub series (all `fleet.<source>.` prefixed) plus pad_rx_*
     * self-metrics, with optional alert-state rows. Safe from any
     * thread (a scrape endpoint's renderer).
     */
    std::string
    renderMetrics(const std::vector<AlertStateSample> *alerts =
                      nullptr) const;

    /**
     * Deterministic dump of everything merged so far: sources with
     * their last sequence numbers, per-series digests, and the
     * merged stats. Two receivers fed identical batch streams (e.g.
     * two `padd --replay` runs of one session) dump byte-identically.
     */
    std::string dumpMerged() const;

    /** Self-metrics; rendered as pad_rx_* in the exposition. */
    struct Counters {
        std::uint64_t connections = 0;
        std::uint64_t batches = 0;      ///< merged "batch" frames
        std::uint64_t statsBatches = 0; ///< merged "stats" frames
        std::uint64_t samples = 0;
        std::uint64_t duplicates = 0; ///< acked but already merged
        std::uint64_t protocolErrors = 0;
    };
    Counters counters() const;

    /** Distinct sources seen so far. */
    std::size_t sourceCount() const;

    /** Largest batch tick merged so far (kTickNever before any). */
    Tick maxTick() const;

  private:
    struct Connection {
        int fd = -1;
        /** Received bytes not yet consumed by a whole frame. */
        std::unique_ptr<char[]> data;
        std::size_t filled = 0;
        std::size_t capacity = 0;

        /** Grow to hold @p bytes, keeping the filled prefix. */
        void reserve(std::size_t bytes);
    };

    void serveLoop();
    /** Consume complete frames from @p conn; false = close it. */
    bool drainFrames(Connection &conn);
    /** Merge one parsed line; returns the ack line to send. */
    std::string handleLine(std::string_view line, bool *ok);

    const int requestedPort_;
    int port_ = -1;
    int listenFd_ = -1;
    std::atomic<bool> stop_{false};
    bool running_ = false;
    std::thread thread_;

    TelemetryHub hub_;
    mutable std::mutex mu_; ///< guards the maps below
    std::map<std::string, std::int64_t> lastSeq_; ///< per source
    std::map<std::string, double> scalars_;
    std::map<std::string, std::uint64_t> counterStats_;
    Tick maxTick_ = kTickNever;

    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> statsBatches_{0};
    std::atomic<std::uint64_t> samples_{0};
    std::atomic<std::uint64_t> duplicates_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};
};

} // namespace pad::telemetry

#endif // PAD_TELEMETRY_RECEIVER_H
