#include "telemetry/remote_write.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sim/stats_registry.h"
#include "telemetry/http.h"
#include "util/json.h"
#include "util/json_writer.h"
#include "util/types.h"

namespace pad::telemetry {

namespace {

constexpr std::string_view kFramePrefix = "pad-rw-v1 ";
/** Enough digits for any length up to kMaxConnBuffer, and no more. */
constexpr std::size_t kMaxFrameDigits = 8;
static_assert(kMaxConnBuffer < 100000000, "raise kMaxFrameDigits");
constexpr std::string_view kSpoolPrefix = "rw_spool-";
constexpr std::string_view kSpoolSuffix = ".jsonl";
/** Rotate the open spool file past this size. */
constexpr std::uint64_t kSpoolRotateBytes = 4u << 20;

/** mkdir -p for a relative or absolute path (POSIX, no deps). */
bool
makeDirs(const std::string &path)
{
    std::string cur;
    std::size_t pos = 0;
    while (pos <= path.size()) {
        const std::size_t slash = path.find('/', pos);
        const std::size_t end =
            slash == std::string::npos ? path.size() : slash;
        cur = path.substr(0, end);
        pos = end + 1;
        if (cur.empty() || cur == ".")
            continue;
        if (::mkdir(cur.c_str(), 0777) != 0 && errno != EEXIST)
            return false;
        if (slash == std::string::npos)
            break;
    }
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

template <typename Int>
void
appendInt(std::string &out, Int v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    out += JsonWriter::escape(s);
    out += '"';
}

/**
 * One pad-rw-v1 line read in a single pass through a JsonReader,
 * straight into an RwBatch. It accepts exactly what a JSON DOM plus
 * the schema checks would: any key order, the first of duplicate
 * keys wins, and unknown keys (or sections the batch type does not
 * use) are validated and skipped. A section met before "type" is
 * skipped and its span read once the type is known.
 */
class RwLineReader
{
  public:
    explicit RwLineReader(std::string_view text)
        : text_(text), in_(text, &syntax_)
    {
    }

    std::optional<RwBatch>
    parse(std::string *error)
    {
        RwBatch b;
        if (readBatch(b))
            return b;
        if (error)
            *error = message();
        return std::nullopt;
    }

  private:
    enum Field { kV, kType, kSource, kSeq, kTick, kSeries, kScalars,
                 kCounters, kFieldCount };

    static constexpr std::string_view kNames[kFieldCount] = {
        "v", "type", "source", "seq", "tick", "series", "scalars",
        "counters"};
    /** The error for a field that is missing or malformed. */
    static constexpr const char *kBadField[kFieldCount] = {
        "missing or unsupported schema version",
        "type must be \"batch\" or \"stats\"",
        "missing source",
        "missing or out-of-range seq",
        "missing or out-of-range tick",
        "batch without series array",
        "stats without scalars/counters objects",
        "stats without scalars/counters objects"};

    static int
    fieldOf(std::string_view key)
    {
        for (int f = 0; f < kFieldCount; ++f)
            if (key == kNames[f])
                return f;
        return -1;
    }

    /** Header fields always; a section only for its batch type. */
    static bool
    wanted(int f, const std::string &type)
    {
        return f < kSeries || (f == kSeries) == (type == "batch");
    }

    std::string
    message() const
    {
        return in_.failed() ? "not a JSON object: " + syntax_ : why_;
    }

    bool
    reject(std::string why)
    {
        why_ = std::move(why);
        return false;
    }

    /** A number at the cursor; false if none is there. */
    bool
    number(double &out)
    {
        const char c = in_.peek();
        return (c == '-' || (c >= '0' && c <= '9')) && in_.readNumber(out);
    }

    bool
    string(std::string &out)
    {
        return in_.peek() == '"' && in_.readString(out);
    }

    /** Read the header field @p f (kV..kTick) into @p b. */
    bool
    header(int f, RwBatch &b)
    {
        double num = 0.0;
        switch (f) {
          case kV:
            return number(num) && num == 1.0;
          case kType:
            return string(b.type) && (b.type == "batch" || b.type == "stats");
          case kSource:
            return string(b.source) && !b.source.empty();
          case kSeq:
            return number(num) && countFrom(num, b.seq);
          default:
            return number(num) && tickFrom(num, b.tick);
        }
    }

    bool
    readBatch(RwBatch &b)
    {
        if (!in_.beginObject())
            return reject("not a JSON object");
        bool seen[kFieldCount] = {};
        std::string_view deferred[kFieldCount];
        while (in_.nextKey(key_)) {
            const int f = fieldOf(key_);
            if (f < 0 || seen[f]) {
                if (!in_.skipValue())
                    return false;
                continue;
            }
            seen[f] = true;
            if (f < kSeries) {
                if (!header(f, b))
                    return reject(kBadField[f]);
            } else if (!seen[kType]) {
                in_.peek();
                const std::size_t start = in_.offset();
                if (!in_.skipValue())
                    return false;
                deferred[f] = text_.substr(start, in_.offset() - start);
            } else if (wanted(f, b.type) ? !section(f, b)
                                         : !in_.skipValue()) {
                return false;
            }
        }
        if (in_.failed() || !in_.finish())
            return false;
        for (int f = 0; f < kFieldCount; ++f) {
            if (!wanted(f, b.type))
                continue;
            if (!seen[f])
                return reject(kBadField[f]);
            if (!deferred[f].empty()) {
                RwLineReader sub(deferred[f]);
                if (!sub.section(f, b))
                    return reject(sub.message());
            }
        }
        return true;
    }

    /** Read the section @p f (kSeries..kCounters) into @p b. */
    bool
    section(int f, RwBatch &b)
    {
        if (f == kSeries)
            return series(b.series);
        if (!in_.beginObject())
            return reject(kBadField[f]);
        while (in_.nextKey(key_)) {
            double v = 0.0;
            if (f == kScalars) {
                if (!number(v))
                    return reject("non-numeric scalar " + key_);
                b.scalars.emplace_back(key_, v);
            } else {
                std::uint64_t count = 0;
                if (!number(v) || !countFrom(v, count))
                    return reject("non-numeric or out-of-range counter " +
                                  key_);
                b.counters.emplace_back(key_, count);
            }
        }
        return !in_.failed();
    }

    bool
    series(std::vector<RwSeriesChunk> &out)
    {
        if (!in_.beginArray())
            return reject(kBadField[kSeries]);
        while (in_.nextElement()) {
            RwSeriesChunk chunk;
            if (!seriesEntry(chunk))
                return false;
            out.push_back(std::move(chunk));
        }
        return !in_.failed();
    }

    bool
    seriesEntry(RwSeriesChunk &chunk)
    {
        if (!in_.beginObject())
            return reject("malformed series entry");
        bool haveName = false, haveSamples = false;
        while (in_.nextKey(key_)) {
            if (key_ == "name" && !haveName) {
                haveName = true;
                if (!string(chunk.name) || chunk.name.empty())
                    return reject("malformed series entry");
            } else if (key_ == "samples" && !haveSamples) {
                haveSamples = true;
                if (!samples(chunk))
                    return false;
            } else if (!in_.skipValue()) {
                return false;
            }
        }
        if (in_.failed())
            return false;
        if (!haveName || !haveSamples)
            return reject("malformed series entry");
        return true;
    }

    /** The [[tick, value], ...] array of one series entry. */
    bool
    samples(RwSeriesChunk &chunk)
    {
        if (!in_.beginArray())
            return reject("malformed series entry");
        double when = 0.0;
        Sample s;
        while (in_.nextElement()) {
            if (!in_.beginArray() || !in_.nextElement() || !number(when) ||
                !in_.nextElement() || !number(s.value) ||
                in_.nextElement() || in_.failed() ||
                !tickFrom(when, s.when))
                return reject("malformed sample in series " + chunk.name);
            chunk.samples.push_back(s);
        }
        return !in_.failed();
    }

    std::string_view text_;
    std::string syntax_;
    JsonReader in_;
    std::string why_;
    std::string key_;
};

} // namespace

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

std::uint64_t
RwBatch::sampleCount() const
{
    std::uint64_t n = 0;
    for (const auto &chunk : series)
        n += chunk.samples.size();
    return n;
}

std::string
renderRwBatchLine(const RwBatch &b)
{
    // Upper bounds per item, so the line is built without regrowing:
    // a sample is at most "[" + 20-char tick + "," + 24-char double
    // + "],".
    std::size_t size = 96 + b.type.size() + b.source.size();
    for (const auto &chunk : b.series)
        size += 32 + chunk.name.size() + 48 * chunk.samples.size();
    for (const auto &[name, value] : b.scalars)
        size += 32 + name.size();
    for (const auto &[name, value] : b.counters)
        size += 32 + name.size();
    std::string out;
    out.reserve(size);

    out += "{\"v\":1,\"type\":";
    appendString(out, b.type);
    out += ",\"source\":";
    appendString(out, b.source);
    out += ",\"seq\":";
    appendInt(out, b.seq);
    out += ",\"tick\":";
    appendInt(out, b.tick);
    if (b.type == "batch") {
        out += ",\"series\":[";
        for (std::size_t c = 0; c < b.series.size(); ++c) {
            if (c > 0)
                out += ',';
            out += "{\"name\":";
            appendString(out, b.series[c].name);
            out += ",\"samples\":[";
            const std::vector<Sample> &samples = b.series[c].samples;
            for (std::size_t k = 0; k < samples.size(); ++k) {
                out += k > 0 ? ",[" : "[";
                appendInt(out, samples[k].when);
                out += ',';
                JsonWriter::appendDouble(out, samples[k].value);
                out += ']';
            }
            out += "]}";
        }
        out += ']';
    } else {
        out += ",\"scalars\":{";
        for (std::size_t k = 0; k < b.scalars.size(); ++k) {
            if (k > 0)
                out += ',';
            appendString(out, b.scalars[k].first);
            out += ':';
            JsonWriter::appendDouble(out, b.scalars[k].second);
        }
        out += "},\"counters\":{";
        for (std::size_t k = 0; k < b.counters.size(); ++k) {
            if (k > 0)
                out += ',';
            appendString(out, b.counters[k].first);
            out += ':';
            appendInt(out, b.counters[k].second);
        }
        out += '}';
    }
    out += '}';
    return out;
}

std::optional<RwBatch>
parseRwBatchLine(std::string_view line, std::string *error)
{
    return RwLineReader(line).parse(error);
}

std::string
frameRwLine(const std::string &line)
{
    std::string out(kFramePrefix);
    out += std::to_string(line.size() + 1);
    out += '\n';
    out += line;
    out += '\n';
    return out;
}

RwFrameHeader
parseRwFrameHeader(std::string_view buf)
{
    RwFrameHeader h;
    const auto bad = [&h](const char *why) {
        h.status = RwFrameHeader::Status::Bad;
        h.error = why;
        return h;
    };
    const std::size_t n = std::min(buf.size(), kFramePrefix.size());
    if (buf.substr(0, n) != kFramePrefix.substr(0, n))
        return bad("bad frame header");
    std::size_t len = 0;
    std::size_t i = kFramePrefix.size();
    for (; i < buf.size() && buf[i] != '\n'; ++i) {
        if (buf[i] < '0' || buf[i] > '9' ||
            i - kFramePrefix.size() == kMaxFrameDigits)
            return bad("bad frame length");
        len = len * 10 + static_cast<std::size_t>(buf[i] - '0');
    }
    if (i >= buf.size())
        return h; // no newline yet: could still become a header
    if (len == 0 || len > kMaxConnBuffer)
        return bad("bad frame length");
    h.status = RwFrameHeader::Status::Ok;
    h.headerBytes = i + 1;
    h.payloadBytes = len;
    return h;
}

bool
validateRwStream(std::string_view text, std::string *error,
                 RwStreamInfo *info)
{
    RwStreamInfo local;
    RwStreamInfo &out = info ? *info : local;
    out = RwStreamInfo{};
    out.framed = text.rfind(kFramePrefix, 0) == 0;

    const auto fail = [&](std::uint64_t record, const std::string &why) {
        if (error)
            *error = "record " + std::to_string(record) + ": " + why;
        return false;
    };

    std::map<std::string, std::int64_t> lastSeq;
    std::size_t pos = 0;
    std::uint64_t record = 0;
    while (pos < text.size()) {
        std::string_view line;
        if (out.framed) {
            const RwFrameHeader h = parseRwFrameHeader(text.substr(pos));
            if (h.status == RwFrameHeader::Status::Bad)
                return fail(record + 1, h.error);
            const std::size_t start = pos + h.headerBytes;
            if (h.status == RwFrameHeader::Status::Incomplete ||
                h.payloadBytes > text.size() - start) {
                out.truncatedTail = true; // cut mid-write
                break;
            }
            if (text[start + h.payloadBytes - 1] != '\n')
                return fail(record + 1, "frame payload not newline-"
                                        "terminated");
            line = text.substr(start, h.payloadBytes - 1);
            pos = start + h.payloadBytes;
        } else {
            const std::size_t nl = text.find('\n', pos);
            if (nl == std::string_view::npos) {
                // A spool writer appends whole lines; a line with no
                // terminator is a crash-cut tail, skipped on replay.
                out.truncatedTail = true;
                break;
            }
            line = text.substr(pos, nl - pos);
            pos = nl + 1;
            if (line.empty())
                continue;
        }

        ++record;
        std::string parseError;
        const auto batch = parseRwBatchLine(line, &parseError);
        if (!batch)
            return fail(record, parseError);

        auto [it, fresh] = lastSeq.emplace(batch->source, -1);
        if (static_cast<std::int64_t>(batch->seq) <= it->second)
            return fail(record, "seq " + std::to_string(batch->seq) +
                                    " out of order for source " +
                                    batch->source);
        it->second = static_cast<std::int64_t>(batch->seq);
        if (fresh)
            out.sources.push_back(batch->source);

        for (const auto &chunk : batch->series) {
            Tick prev = kTickNever;
            for (const Sample &s : chunk.samples) {
                if (prev != kTickNever && s.when < prev)
                    return fail(record, "non-monotonic ticks in " +
                                            chunk.name);
                prev = s.when;
            }
        }

        if (batch->type == "batch")
            ++out.batches;
        else
            ++out.statsBatches;
        out.samples += batch->sampleCount();
        if (out.firstTick == kTickNever)
            out.firstTick = batch->tick;
        out.lastTick = batch->tick;
    }
    std::sort(out.sources.begin(), out.sources.end());
    return true;
}

std::optional<std::pair<std::string, int>>
parseHostPort(std::string_view spec, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string_view::npos || colon == 0)
        return fail("expected HOST:PORT, got \"" + std::string(spec) +
                    "\"");
    const std::string_view portText = spec.substr(colon + 1);
    if (portText.empty())
        return fail("missing port in \"" + std::string(spec) + "\"");
    long port = 0;
    for (const char c : portText) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return fail("non-numeric port in \"" + std::string(spec) +
                        "\"");
        port = port * 10 + (c - '0');
        if (port > 65535)
            return fail("port out of range in \"" + std::string(spec) +
                        "\"");
    }
    if (port < 1)
        return fail("port out of range in \"" + std::string(spec) +
                    "\"");
    return std::make_pair(std::string(spec.substr(0, colon)),
                          static_cast<int>(port));
}

// ---------------------------------------------------------------------------
// Shipper
// ---------------------------------------------------------------------------

RemoteWriteShipper::RemoteWriteShipper(RemoteWriteOptions opts,
                                       const TelemetryHub *hub)
    : opts_(std::move(opts)), hub_(hub)
{
}

RemoteWriteShipper::~RemoteWriteShipper()
{
    // Hard stop without a final snapshot: the owner is expected to
    // call finish(); this path only keeps a forgotten shipper from
    // hanging the process. Leftovers are spooled or dropped by the
    // sender's exit accounting.
    if (started_ && !finished_) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
    }
    if (sender_.joinable())
        sender_.join();
}

bool
RemoteWriteShipper::start(std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error)
            *error = "remote-write: " + why;
        return false;
    };
    if (started_)
        return true;
    if (!hub_)
        return fail("no telemetry hub");
    if (opts_.port < 1 || opts_.port > 65535)
        return fail("bad port " + std::to_string(opts_.port));
    if (opts_.source.empty())
        return fail("empty source label");
    if (opts_.intervalS <= 0)
        return fail("push interval must be positive");

    if (opts_.host == "localhost")
        opts_.host = "127.0.0.1";
    in_addr probe{};
    if (::inet_pton(AF_INET, opts_.host.c_str(), &probe) != 1)
        return fail("host must be an IPv4 address or localhost, got "
                    "\"" +
                    opts_.host + "\"");

    if (!opts_.spoolDir.empty()) {
        if (!makeDirs(opts_.spoolDir))
            return fail("cannot create spool dir " + opts_.spoolDir +
                        ": " + std::strerror(errno));
        // Resume numbering after any files a crashed run left behind;
        // they replay (oldest first) on the first successful connect.
        spoolNext_ = 0;
        for (const std::string &path : spoolFiles()) {
            const std::size_t slash = path.rfind('/');
            const std::string name =
                slash == std::string::npos ? path
                                           : path.substr(slash + 1);
            const int index = std::atoi(
                name.substr(kSpoolPrefix.size()).c_str());
            spoolNext_ = std::max(spoolNext_, index + 1);
        }
    }

    intervalTicks_ =
        std::max<Tick>(1, secondsToTicks(opts_.intervalS));
    jitter_ = SplitMix64(opts_.jitterSeed ^ 0x5851f42d4c957f2dULL);
    started_ = true;
    sender_ = std::thread(&RemoteWriteShipper::senderLoop, this);
    return true;
}

void
RemoteWriteShipper::observe(Tick now)
{
    if (!started_ || finished_)
        return;
    if (lastSnapTick_ == kTickNever) {
        lastSnapTick_ = now; // anchor the interval clock
        return;
    }
    if (now - lastSnapTick_ < intervalTicks_)
        return;
    {
        // The sender is a full queue behind (a slow peer, or a sim
        // at full speed outrunning the first connect): a cut now
        // would only be dropped, so leave the samples in the hub
        // ring, where the next cut after the queue drains finds them.
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.size() >= opts_.queueLimit)
            return;
    }
    snapshotNow(now);
}

void
RemoteWriteShipper::snapshotNow(Tick now)
{
    if (!started_ || finished_)
        return;
    lastSnapTick_ = now;

    RwBatch b;
    b.type = "batch";
    b.source = opts_.source;
    b.tick = now;

    std::uint64_t lost = 0;
    for (TelemetryHub::RawSeries &s : hub_->rawSince(cursor_)) {
        if (s.id >= cursor_.size())
            cursor_.resize(s.id + 1, 0);
        lost += s.totalSamples - cursor_[s.id] - s.raw.size();
        cursor_[s.id] = s.totalSamples;
        b.series.push_back(
            RwSeriesChunk{std::move(s.name), std::move(s.raw)});
    }
    if (lost > 0)
        lostSamples_.fetch_add(lost, std::memory_order_relaxed);
    if (b.series.empty())
        return; // nothing new since the last cut
    b.seq = nextSeq_++;
    enqueue(renderRwBatchLine(b), b.sampleCount());
}

void
RemoteWriteShipper::finish(Tick now, const sim::StatsRegistry *stats)
{
    if (!started_ || finished_)
        return;
    snapshotNow(now);
    if (stats) {
        RwBatch b;
        b.type = "stats";
        b.source = opts_.source;
        b.seq = nextSeq_++;
        b.tick = now;
        stats->forEachScalar([&](const std::string &name, double value,
                                 const std::string &) {
            b.scalars.emplace_back(name, value);
        });
        stats->forEachCounter([&](const std::string &name,
                                  std::uint64_t value,
                                  const std::string &) {
            b.counters.emplace_back(name, value);
        });
        enqueue(renderRwBatchLine(b), 0);
    }
    finished_ = true;

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(
            static_cast<long>(opts_.drainDeadlineS * 1000.0));
    {
        std::unique_lock<std::mutex> lock(mu_);
        draining_ = true;
        cv_.notify_all();
        doneCv_.wait_until(lock, deadline,
                           [this] { return senderDone_; });
        if (!senderDone_) {
            stop_ = true; // deadline blown: hard stop
            cv_.notify_all();
        }
    }
    if (sender_.joinable())
        sender_.join();
}

RemoteWriteShipper::Counters
RemoteWriteShipper::counters() const
{
    Counters c;
    c.batchesEnqueued = enqueued_.load(std::memory_order_relaxed);
    c.batchesSent = sent_.load(std::memory_order_relaxed);
    c.batchesDropped = dropped_.load(std::memory_order_relaxed);
    c.batchesSpooled = spooled_.load(std::memory_order_relaxed);
    c.spoolReplayed = replayed_.load(std::memory_order_relaxed);
    c.samplesShipped = shippedSamples_.load(std::memory_order_relaxed);
    c.samplesLost = lostSamples_.load(std::memory_order_relaxed);
    c.reconnects = reconnects_.load(std::memory_order_relaxed);
    c.sendFailures = sendFailures_.load(std::memory_order_relaxed);
    return c;
}

std::string
RemoteWriteShipper::renderPromCounters(const Counters &c)
{
    std::ostringstream os;
    const auto row = [&os](const char *name, const char *help,
                           std::uint64_t value) {
        os << "# HELP " << name << ' ' << help << '\n'
           << "# TYPE " << name << " counter\n"
           << name << ' ' << value << '\n';
    };
    row("pad_rw_enqueued_total",
        "Batches handed to the remote-write sender.",
        c.batchesEnqueued);
    row("pad_rw_sent_total",
        "Batches delivered and acknowledged (including spool "
        "replays).",
        c.batchesSent);
    row("pad_rw_dropped_total",
        "Batches discarded by the bounded queue or shutdown "
        "deadline.",
        c.batchesDropped);
    row("pad_rw_spooled_total",
        "Batches spilled to the on-disk spool while the peer was "
        "down.",
        c.batchesSpooled);
    row("pad_rw_spool_replayed_total",
        "Spooled batches replayed to the peer after reconnect.",
        c.spoolReplayed);
    row("pad_rw_samples_total",
        "Telemetry samples shipped inside acknowledged batches.",
        c.samplesShipped);
    row("pad_rw_samples_lost_total",
        "Samples evicted from the hub ring before a snapshot "
        "reached them.",
        c.samplesLost);
    row("pad_rw_reconnects_total",
        "Successful connects to the receiver.", c.reconnects);
    row("pad_rw_send_failures_total",
        "Failed connect or send/ack attempts.", c.sendFailures);
    return os.str();
}

// --------------------------------------------------------------- sender side

void
RemoteWriteShipper::enqueue(std::string line, std::uint64_t samples)
{
    bool notify = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (queue_.size() >= opts_.queueLimit) {
            // Drop-newest: the queue already holds the oldest
            // undelivered history; new cuts are re-coverable from
            // the hub ring by a later snapshot only if samples
            // survive there, so count the loss explicitly.
            dropped_.fetch_add(1, std::memory_order_relaxed);
        } else {
            queue_.emplace_back(std::move(line), samples);
            enqueued_.fetch_add(1, std::memory_order_relaxed);
            notify = true;
        }
    }
    if (notify)
        cv_.notify_one();
}

void
RemoteWriteShipper::senderLoop()
{
    for (;;) {
        std::string line;
        std::uint64_t samples = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] {
                return stop_ || draining_ || !queue_.empty();
            });
            if (stop_)
                break;
            if (queue_.empty()) {
                if (draining_)
                    break; // fully drained
                continue;
            }
            line = std::move(queue_.front().first);
            samples = queue_.front().second;
            queue_.pop_front();
        }
        if (!deliverOrSpool(line)) {
            // Hard stop while this batch was in flight.
            if (!opts_.spoolDir.empty() && spoolAppend(line))
                spooled_.fetch_add(1, std::memory_order_relaxed);
            else
                dropped_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        shippedSamples_.fetch_add(samples, std::memory_order_relaxed);
    }

    // Exit accounting: whatever is still queued at a hard stop is
    // persisted to the spool when one is configured, else dropped.
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!queue_.empty()) {
            if (!opts_.spoolDir.empty() &&
                spoolAppend(queue_.front().first))
                spooled_.fetch_add(1, std::memory_order_relaxed);
            else
                dropped_.fetch_add(1, std::memory_order_relaxed);
            queue_.pop_front();
        }
        senderDone_ = true;
    }
    doneCv_.notify_all();
    disconnectPeer();
}

/**
 * Deliver one rendered batch line, retrying across reconnects until
 * it is acknowledged, persisted to the spool, or a hard stop lands.
 * Returns false only on hard stop with the line still undelivered.
 */
bool
RemoteWriteShipper::deliverOrSpool(const std::string &line)
{
    for (;;) {
        if (fd_ < 0) {
            if (!connectPeer()) {
                sendFailures_.fetch_add(1, std::memory_order_relaxed);
                ++failureStreak_;
                if (!opts_.spoolDir.empty()) {
                    // Peer down, WAL available: persist instead of
                    // blocking — and spill the backlog too, so the
                    // bounded queue stays empty for fresh batches.
                    // A spool write failure (disk full) downgrades
                    // to a counted drop; the sender stays alive.
                    if (spoolAppend(line))
                        spooled_.fetch_add(1,
                                           std::memory_order_relaxed);
                    else
                        dropped_.fetch_add(1,
                                           std::memory_order_relaxed);
                    std::unique_lock<std::mutex> lock(mu_);
                    spillQueueLocked(lock);
                    return true;
                }
                backoffWait();
                std::lock_guard<std::mutex> lock(mu_);
                if (stop_)
                    return false;
                continue;
            }
            reconnects_.fetch_add(1, std::memory_order_relaxed);
            failureStreak_ = 0;
            if (!replaySpool()) {
                // Lost the peer mid-replay; spool keeps the batches,
                // the next connect replays them again (the receiver
                // dedupes by sequence number).
                disconnectPeer();
                sendFailures_.fetch_add(1, std::memory_order_relaxed);
                ++failureStreak_;
                continue;
            }
        }
        if (sendFramed(line) && awaitAck()) {
            sent_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        sendFailures_.fetch_add(1, std::memory_order_relaxed);
        ++failureStreak_;
        disconnectPeer();
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stop_)
                return false;
        }
    }
}

bool
RemoteWriteShipper::connectPeer()
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        disconnectPeer();
        return false;
    }
    return true;
}

void
RemoteWriteShipper::disconnectPeer()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    recvBuf_.clear();
}

bool
RemoteWriteShipper::sendFramed(const std::string &line)
{
    return fd_ >= 0 && sendAll(fd_, frameRwLine(line));
}

bool
RemoteWriteShipper::awaitAck()
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts_.ackTimeoutMs);
    std::size_t nl;
    while ((nl = recvBuf_.find('\n')) == std::string::npos) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stop_)
                return false;
        }
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 100 /* ms */);
        if (ready < 0)
            return false;
        if (ready == 0)
            continue;
        char chunk[512];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        recvBuf_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string ack = recvBuf_.substr(0, nl);
    recvBuf_.erase(0, nl + 1);
    // {"ok":true,...}: the first "ok" member decides.
    JsonReader r(ack);
    std::string key;
    bool ok = false, seenOk = false;
    if (!r.beginObject())
        return false;
    while (r.nextKey(key)) {
        if (key == "ok" && !seenOk) {
            seenOk = true;
            ok = r.peek() == 't';
        }
        if (!r.skipValue())
            return false;
    }
    return ok && !r.failed() && r.finish();
}

void
RemoteWriteShipper::spillQueueLocked(std::unique_lock<std::mutex> &)
{
    while (!queue_.empty()) {
        if (spoolAppend(queue_.front().first))
            spooled_.fetch_add(1, std::memory_order_relaxed);
        else
            dropped_.fetch_add(1, std::memory_order_relaxed);
        queue_.pop_front();
    }
}

bool
RemoteWriteShipper::spoolAppend(const std::string &line)
{
    if (opts_.spoolDir.empty())
        return false;
    if (spoolOpen_.empty() || spoolOpenBytes_ >= kSpoolRotateBytes) {
        char name[64];
        std::snprintf(name, sizeof(name), "%s%06d%s",
                      std::string(kSpoolPrefix).c_str(), spoolNext_++,
                      std::string(kSpoolSuffix).c_str());
        spoolOpen_ = opts_.spoolDir + "/" + name;
        spoolOpenBytes_ = 0;
    }
    std::ofstream out(spoolOpen_, std::ios::app | std::ios::binary);
    if (!out)
        return false;
    out << line << '\n';
    out.flush();
    if (!out)
        return false;
    spoolOpenBytes_ += line.size() + 1;
    return true;
}

std::vector<std::string>
RemoteWriteShipper::spoolFiles() const
{
    std::vector<std::string> files;
    DIR *dir = ::opendir(opts_.spoolDir.c_str());
    if (!dir)
        return files;
    while (const dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.size() >
                kSpoolPrefix.size() + kSpoolSuffix.size() &&
            name.rfind(kSpoolPrefix, 0) == 0 &&
            name.compare(name.size() - kSpoolSuffix.size(),
                         kSpoolSuffix.size(), kSpoolSuffix) == 0)
            files.push_back(opts_.spoolDir + "/" + name);
    }
    ::closedir(dir);
    // Zero-padded indices: lexicographic order is creation order.
    std::sort(files.begin(), files.end());
    return files;
}

bool
RemoteWriteShipper::replaySpool()
{
    if (opts_.spoolDir.empty())
        return true;
    for (const std::string &path : spoolFiles()) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            continue;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty())
                continue;
            // A crash-cut tail line lost its terminator and usually
            // its closing braces; replay it if it still parses, skip
            // it if it does not.
            if (!parseRwBatchLine(line))
                continue;
            if (!sendFramed(line) || !awaitAck())
                return false; // file kept; re-replayed next connect
            replayed_.fetch_add(1, std::memory_order_relaxed);
            sent_.fetch_add(1, std::memory_order_relaxed);
        }
        ::unlink(path.c_str());
        if (path == spoolOpen_) {
            spoolOpen_.clear();
            spoolOpenBytes_ = 0;
        }
    }
    return true;
}

void
RemoteWriteShipper::backoffWait()
{
    // Exponential backoff with deterministic jitter: delay doubles
    // per consecutive failure up to the cap, then the top half is
    // jittered so a fleet of shippers does not reconnect in phase.
    const int shift = std::min(failureStreak_ - 1, 16);
    long delay = static_cast<long>(opts_.backoffBaseMs) << shift;
    delay = std::min<long>(delay, opts_.backoffCapMs);
    delay = std::max<long>(delay, 1);
    const long jitterSpan = delay / 2;
    if (jitterSpan > 0)
        delay = delay - jitterSpan +
                static_cast<long>(jitter_() %
                                  static_cast<std::uint64_t>(jitterSpan + 1));
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(delay),
                 [this] { return stop_; });
}

} // namespace pad::telemetry
