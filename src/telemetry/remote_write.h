/**
 * @file
 * Push-based telemetry export: the pad-rw-v2 batch codec and the
 * RemoteWriteShipper.
 *
 * The pull-based scrape endpoint (telemetry/http.h) requires a
 * scraper to find every padsim/padd process; a fleet of daemons
 * instead *pushes* its telemetry to one aggregation point. The
 * shipper snapshots a TelemetryHub on a sim-time interval into
 * tick-stamped line-JSON batches ("pad-rw-v2" schema, DESIGN.md
 * §14) and delivers them over a persistent localhost TCP connection
 * with the full robustness envelope:
 *
 *  - bounded in-memory queue with an explicit drop-newest policy
 *    (drops visible as pad_rw_dropped_total self-metrics);
 *  - exponential backoff with deterministic jitter on connect/send
 *    failure;
 *  - optional write-ahead spill to <spool>/rw_spool-*.jsonl while
 *    the peer is down, replayed in order on reconnect (crash-cut
 *    tails tolerated);
 *  - clean drain-on-shutdown with a hard deadline.
 *
 * Batches are stamped with *sim* ticks and cut by the sim thread at
 * step boundaries, so a daemon replayed from a session log produces
 * the exact same batch stream as the live run; only the delivery
 * legwork (connect, retry, spool) happens on the shipper's own
 * background thread, off the sim hot path.
 */

#ifndef PAD_TELEMETRY_REMOTE_WRITE_H
#define PAD_TELEMETRY_REMOTE_WRITE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/hub.h"
#include "telemetry/time_series.h"
#include "util/random.h"

namespace pad::sim {
class StatsRegistry;
}

namespace pad::telemetry {

// ---------------------------------------------------------------------------
// pad-rw-v2 codec
// ---------------------------------------------------------------------------

/** One series' new samples inside a batch. */
struct RwSeriesChunk {
    std::string name;
    std::vector<Sample> samples;
};

/**
 * One pad-rw-v2 batch: either a "batch" of time-series samples or a
 * final "stats" dump of StatsRegistry scalars/counters. Rendered as
 * a single JSON line; on the wire each line is length-prefixed with
 * a `pad-rw-v2 <bytes>\n` header so a receiver can frame without
 * scanning, while spool files store the bare lines (plain JSONL,
 * directly inspectable with padtrace rw).
 *
 * A "batch" line lists each distinct tick vector once, as a
 * delta-encoded column in "ticks"; each series names its column and
 * carries its values as one string of 16 lowercase hex digits per
 * sample, the IEEE bits of the double. Stats scalars are hex bits
 * too, counters decimal integers. Every double, NaN and infinities
 * included, round-trips bit for bit.
 */
struct RwBatch {
    /** "batch" (samples) or "stats" (registry dump). */
    std::string type = "batch";
    /** Shipper identity; the receiver prefixes series with it. */
    std::string source;
    /** Per-source sequence number, starting at 0, no gaps. */
    std::uint64_t seq = 0;
    /** Sim tick the snapshot was cut at. */
    Tick tick = 0;
    /** type == "batch": new samples per series, name-sorted. */
    std::vector<RwSeriesChunk> series;
    /** type == "stats": registry dump, name-sorted. */
    std::vector<std::pair<std::string, double>> scalars;
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    /** Total sample count across every series chunk. */
    std::uint64_t sampleCount() const;
};

/**
 * Render @p b as one minified JSON line (no trailing newline). Chunks
 * with equal tick vectors share one column, numbered in order of
 * first use.
 */
std::string renderRwBatchLine(const RwBatch &b);

/**
 * Parse one JSON line previously produced by renderRwBatchLine(), in
 * one pass with no JSON tree. Keys may come in any order; for a
 * duplicate key the first wins; unknown keys are validated and
 * skipped. Ticks (and each column's running sum), seq and counters
 * must be finite and inside their integer type's range; a series'
 * values must be 16 lowercase hex digits per tick of its column.
 * Returns nullopt (and sets @p error) on malformed input, including
 * any line whose "v" is not 2.
 */
std::optional<RwBatch> parseRwBatchLine(std::string_view line,
                                        std::string *error = nullptr);

/**
 * Largest frame a receiver buffers: a frame header declaring a longer
 * payload is a protocol error.
 */
inline constexpr std::size_t kMaxConnBuffer = 16u << 20;

/** One `pad-rw-v2 <N>\n` frame header at the start of a buffer. */
struct RwFrameHeader {
    enum class Status { Incomplete, Bad, Ok };
    Status status = Status::Incomplete;
    std::size_t headerBytes = 0;  ///< through the header's '\n' (Ok)
    std::size_t payloadBytes = 0; ///< N: the line plus its '\n' (Ok)
    const char *error = "";       ///< why (Bad)
};

/**
 * Parse the frame header at the start of @p buf. Incomplete while
 * more bytes could still complete a valid header; Bad as soon as they
 * cannot: a wrong prefix, a non-digit, more digits than
 * kMaxConnBuffer has, or a length of 0 or above kMaxConnBuffer.
 */
RwFrameHeader parseRwFrameHeader(std::string_view buf);

/**
 * Wrap a rendered batch line in the wire framing:
 * `pad-rw-v2 <N>\n<line>\n` where N counts the line plus its
 * terminating newline. (The shipper sends the same bytes with one
 * gather send, without building this copy.)
 */
std::string frameRwLine(const std::string &line);

/** Summary of a validated batch stream (padtrace rw). */
struct RwStreamInfo {
    std::uint64_t batches = 0;      ///< type == "batch" lines
    std::uint64_t statsBatches = 0; ///< type == "stats" lines
    std::uint64_t samples = 0;
    bool framed = false;      ///< wire framing vs bare JSONL spool
    bool truncatedTail = false; ///< crash-cut final record ignored
    std::vector<std::string> sources; ///< sorted unique
    Tick firstTick = kTickNever;
    Tick lastTick = kTickNever;
};

/**
 * Validate a pad-rw-v2 stream: either a framed wire capture or a
 * bare JSONL spool file (auto-detected by the `pad-rw-v2 ` header).
 * Checks every complete record parses, per-source sequence numbers
 * strictly increase, and sample ticks within each chunk are
 * non-decreasing. A crash-cut final record (missing bytes or an
 * unterminated line) is tolerated and reported via
 * RwStreamInfo::truncatedTail, matching the spool-replay contract.
 */
bool validateRwStream(std::string_view text, std::string *error = nullptr,
                      RwStreamInfo *info = nullptr);

/** Split "HOST:PORT" (numeric port 1..65535); nullopt + error on bad input. */
std::optional<std::pair<std::string, int>>
parseHostPort(std::string_view spec, std::string *error = nullptr);

// ---------------------------------------------------------------------------
// Shipper
// ---------------------------------------------------------------------------

struct RemoteWriteOptions {
    /** Receiver address (IPv4 dotted quad or "localhost"). */
    std::string host = "127.0.0.1";
    int port = 0;
    /** Source label; the receiver prefixes series `fleet.<source>.`. */
    std::string source = "pad";
    /** Sim-time snapshot interval in seconds. */
    double intervalS = 60.0;
    /** Max batches held in memory while the sender catches up. */
    std::size_t queueLimit = 64;
    /** Spill directory; empty disables the disk WAL. */
    std::string spoolDir;
    /** Wall-clock budget for the shutdown drain, seconds. */
    double drainDeadlineS = 5.0;
    /** First reconnect delay; doubles per failure up to the cap. */
    int backoffBaseMs = 50;
    int backoffCapMs = 2000;
    /** Seed for the deterministic backoff jitter. */
    std::uint64_t jitterSeed = 1;
    /** Wall-clock budget waiting for one batch acknowledgement. */
    int ackTimeoutMs = 5000;
};

/**
 * Ships TelemetryHub samples (and a final StatsRegistry dump) to a
 * ReceiverServer.
 *
 * Threading contract: start(), observe(), snapshotNow() and
 * finish() are called from the sim thread only; one internal sender
 * thread owns the socket, the backoff timer and the spool files.
 * The two sides meet at a bounded batch queue. counters() is safe
 * from any thread.
 *
 * Delivery is stop-and-wait: each framed batch must be acknowledged
 * (`{"ok":true,"seq":N}`) before the next is sent, and the receiver
 * ignores (but still acks) sequence numbers it has already merged —
 * so a resend after a lost ack cannot double-count.
 */
class RemoteWriteShipper
{
  public:
    /** @p hub not owned; must outlive finish()/destruction. */
    RemoteWriteShipper(RemoteWriteOptions opts, const TelemetryHub *hub);
    ~RemoteWriteShipper();

    RemoteWriteShipper(const RemoteWriteShipper &) = delete;
    RemoteWriteShipper &operator=(const RemoteWriteShipper &) = delete;

    /**
     * Validate options, create the spool directory if configured,
     * and launch the sender thread. Fail-fast: returns false with a
     * one-line @p error on a bad target or unusable spool dir. Does
     * NOT wait for a connection — the receiver may come up later.
     */
    bool start(std::string *error = nullptr);

    /**
     * Sim-thread heartbeat; call once per coarse step with the
     * current tick. The first call anchors the interval clock; each
     * later call cuts a snapshot batch when a full interval has
     * elapsed and the queue has room (a full queue defers the cut,
     * the samples waiting in the hub ring). Cheap no-op otherwise.
     */
    void observe(Tick now);

    /** Cut a snapshot batch immediately (new samples since last). */
    void snapshotNow(Tick now);

    /**
     * Final flush: cut a last snapshot, append a "stats" batch when
     * @p stats is non-null, then drain the queue to the peer (or
     * spool) within the configured hard deadline and join the
     * sender. Batches still undelivered at the deadline are counted
     * as dropped (or spooled when a spool is configured). Idempotent.
     */
    void finish(Tick now, const sim::StatsRegistry *stats = nullptr);

    bool started() const { return started_; }
    bool finished() const { return finished_; }

    /** Self-metrics; exposed as pad_rw_* by the daemon exposition. */
    struct Counters {
        std::uint64_t batchesEnqueued = 0;
        std::uint64_t batchesSent = 0;
        std::uint64_t batchesDropped = 0;
        std::uint64_t batchesSpooled = 0;
        std::uint64_t spoolReplayed = 0;
        std::uint64_t samplesShipped = 0;
        std::uint64_t samplesLost = 0; ///< evicted from the hub ring
        std::uint64_t reconnects = 0;  ///< successful connects
        std::uint64_t sendFailures = 0;
    };
    Counters counters() const;

    /** Render the pad_rw_* self-metric exposition lines. */
    static std::string renderPromCounters(const Counters &c);

  private:
    void senderLoop();
    bool connectPeer();
    void disconnectPeer();
    bool sendFramed(const std::string &line);
    bool awaitAck();
    bool deliverOrSpool(const std::string &line);
    void spillQueueLocked(std::unique_lock<std::mutex> &lock);
    bool spoolAppend(const std::string &line);
    bool replaySpool();
    std::vector<std::string> spoolFiles() const;
    void backoffWait();
    void enqueue(std::string line, std::uint64_t samples);

    RemoteWriteOptions opts_;
    const TelemetryHub *hub_;

    // Sim-thread-only snapshot state.
    std::vector<std::uint64_t> cursor_; ///< series id -> totalSamples
    std::uint64_t nextSeq_ = 0;
    Tick lastSnapTick_ = kTickNever;
    Tick intervalTicks_ = 0;
    bool started_ = false;
    bool finished_ = false;

    // Queue shared between sim thread and sender.
    mutable std::mutex mu_;
    std::condition_variable cv_;      ///< work for the sender
    std::condition_variable doneCv_;  ///< sender progress for finish()
    std::deque<std::pair<std::string, std::uint64_t>> queue_;
    bool draining_ = false;
    bool stop_ = false;
    bool senderDone_ = false;

    // Sender-thread-only state.
    std::thread sender_;
    int fd_ = -1;
    std::string recvBuf_;
    int failureStreak_ = 0;
    SplitMix64 jitter_; ///< deterministic backoff jitter
    int spoolNext_ = 0;       ///< next spool file index
    std::string spoolOpen_;   ///< file currently appended to
    std::uint64_t spoolOpenBytes_ = 0;

    // Self-metrics (relaxed atomics; any thread may read).
    std::atomic<std::uint64_t> enqueued_{0};
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> spooled_{0};
    std::atomic<std::uint64_t> replayed_{0};
    std::atomic<std::uint64_t> shippedSamples_{0};
    std::atomic<std::uint64_t> lostSamples_{0};
    std::atomic<std::uint64_t> reconnects_{0};
    std::atomic<std::uint64_t> sendFailures_{0};
};

} // namespace pad::telemetry

#endif // PAD_TELEMETRY_REMOTE_WRITE_H
