#include "telemetry/receiver.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <sstream>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "sim/stats_registry.h"
#include "telemetry/http.h"
#include "telemetry/remote_write.h"
#include "util/json_writer.h"

namespace pad::telemetry {

namespace {

/** Smallest receive buffer: room for the frame headers and small
 *  frames, before a large frame's header grows it. */
constexpr std::size_t kRecvChunk = 64u << 10;

} // namespace

void
ReceiverServer::Connection::reserve(std::size_t bytes)
{
    if (bytes <= capacity)
        return;
    auto grown = std::make_unique_for_overwrite<char[]>(bytes);
    if (filled > 0)
        std::memcpy(grown.get(), data.get(), filled);
    data = std::move(grown);
    capacity = bytes;
}

ReceiverServer::ReceiverServer(int port) : requestedPort_(port) {}

ReceiverServer::~ReceiverServer()
{
    stop();
}

bool
ReceiverServer::start(std::string *error)
{
    if (running_)
        return true;

    const auto fail = [&](const char *what) {
        if (error)
            *error = std::string("receiver: ") + what + " 127.0.0.1:" +
                     std::to_string(requestedPort_) + ": " +
                     std::strerror(errno);
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return false;
    };

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(requestedPort_));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        return fail("bind");
    if (::listen(listenFd_, 8) < 0)
        return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);

    stop_ = false;
    running_ = true;
    thread_ = std::thread(&ReceiverServer::serveLoop, this);
    return true;
}

void
ReceiverServer::stop()
{
    if (!running_)
        return;
    stop_ = true;
    if (thread_.joinable())
        thread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    running_ = false;
}

void
ReceiverServer::setListener(SampleListener *listener)
{
    hub_.setListener(listener);
}

void
ReceiverServer::serveLoop()
{
    std::vector<Connection> conns;
    while (!stop_) {
        std::vector<pollfd> pfds;
        pfds.reserve(conns.size() + 1);
        pfds.push_back(pollfd{listenFd_, POLLIN, 0});
        for (const Connection &conn : conns)
            pfds.push_back(pollfd{conn.fd, POLLIN, 0});

        const int ready =
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                   100 /* ms */);
        if (ready <= 0)
            continue;

        if (pfds[0].revents & POLLIN) {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd >= 0) {
                conns.emplace_back().fd = fd;
                connections_.fetch_add(1, std::memory_order_relaxed);
            }
        }

        // pfds[i + 1] mirrors conns[i]; a freshly accepted conn has
        // no pollfd yet and is simply picked up next iteration.
        for (std::size_t i = 0;
             i < conns.size() && i + 1 < pfds.size(); ++i) {
            if (!(pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Connection &conn = conns[i];
            // Receive straight into the frame buffer, grown to the
            // whole frame once its header is in.
            const RwFrameHeader h = parseRwFrameHeader(
                std::string_view(conn.data.get(), conn.filled));
            conn.reserve(std::max(h.status == RwFrameHeader::Status::Ok
                                      ? h.headerBytes + h.payloadBytes
                                      : conn.filled + 1,
                                  kRecvChunk));
            const ssize_t n =
                ::recv(conn.fd, conn.data.get() + conn.filled,
                       conn.capacity - conn.filled, 0);
            bool keep = n > 0;
            if (keep) {
                conn.filled += static_cast<std::size_t>(n);
                keep = drainFrames(conn);
            }
            if (!keep) {
                ::close(conn.fd);
                conn.fd = -1;
            }
        }
        conns.erase(std::remove_if(conns.begin(), conns.end(),
                                   [](const Connection &c) {
                                       return c.fd < 0;
                                   }),
                    conns.end());
    }
    for (Connection &conn : conns)
        ::close(conn.fd);
}

bool
ReceiverServer::drainFrames(Connection &conn)
{
    std::size_t pos = 0;
    for (;;) {
        const std::string_view rest(conn.data.get() + pos,
                                    conn.filled - pos);
        const RwFrameHeader h = parseRwFrameHeader(rest);
        if (h.status == RwFrameHeader::Status::Bad) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        const std::size_t total = h.headerBytes + h.payloadBytes;
        if (h.status == RwFrameHeader::Status::Incomplete ||
            rest.size() < total)
            break; // need more bytes
        if (rest[total - 1] != '\n') {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        bool ok = false;
        const std::string ack = handleLine(
            rest.substr(h.headerBytes, h.payloadBytes - 1), &ok);
        if (!sendAll(conn.fd, ack + "\n"))
            return false;
        if (!ok) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        pos += total;
    }
    // Keep the start of the next frame, if any, at the front.
    conn.filled -= pos;
    if (pos > 0 && conn.filled > 0)
        std::memmove(conn.data.get(), conn.data.get() + pos, conn.filled);
    return true;
}

std::string
ReceiverServer::handleLine(std::string_view line, bool *ok)
{
    const auto batch = parseRwBatchLine(line);
    if (!batch) {
        *ok = false;
        return "{\"ok\":false}";
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, fresh] = lastSeq_.emplace(batch->source, -1);
        (void)fresh;
        if (static_cast<std::int64_t>(batch->seq) <= it->second) {
            // Resend after a lost ack or a spool re-replay: already
            // merged, acknowledge without double-counting.
            duplicates_.fetch_add(1, std::memory_order_relaxed);
        } else {
            it->second = static_cast<std::int64_t>(batch->seq);
            maxTick_ = std::max(maxTick_, batch->tick);
            const std::string prefix = "fleet." + batch->source + ".";
            if (batch->type == "batch") {
                for (const RwSeriesChunk &chunk : batch->series) {
                    hub_.recordMany(prefix + chunk.name,
                                    chunk.samples.data(),
                                    chunk.samples.size());
                    samples_.fetch_add(chunk.samples.size(),
                                       std::memory_order_relaxed);
                }
                batches_.fetch_add(1, std::memory_order_relaxed);
            } else {
                for (const auto &[name, value] : batch->scalars)
                    scalars_[prefix + name] = value;
                for (const auto &[name, value] : batch->counters)
                    counterStats_[prefix + name] = value;
                statsBatches_.fetch_add(1,
                                        std::memory_order_relaxed);
            }
        }
    }

    *ok = true;
    return "{\"ok\":true,\"seq\":" + std::to_string(batch->seq) + "}";
}

std::string
ReceiverServer::renderMetrics(
    const std::vector<AlertStateSample> *alerts) const
{
    std::map<std::string, double> scalars;
    std::map<std::string, std::uint64_t> counterStats;
    {
        std::lock_guard<std::mutex> lock(mu_);
        scalars = scalars_;
        counterStats = counterStats_;
    }
    sim::StatsRegistry reg;
    for (const auto &[name, value] : scalars)
        reg.registerScalar(name, "merged fleet stat").add(value);
    for (const auto &[name, value] : counterStats)
        reg.registerCounter(name, "merged fleet counter").add(value);

    std::string out = PromWriter().render(&reg, &hub_, alerts);

    const Counters c = counters();
    std::ostringstream os;
    const auto counterRow = [&os](const char *name, const char *help,
                                  std::uint64_t value) {
        os << "# HELP " << name << ' ' << help << '\n'
           << "# TYPE " << name << " counter\n"
           << name << ' ' << value << '\n';
    };
    counterRow("pad_rx_connections_total",
               "Shipper connections accepted.", c.connections);
    counterRow("pad_rx_batches_total",
               "Sample batches merged into the fleet hub.",
               c.batches);
    counterRow("pad_rx_stats_batches_total",
               "Final stats dumps merged.", c.statsBatches);
    counterRow("pad_rx_samples_total", "Samples merged.", c.samples);
    counterRow("pad_rx_duplicates_total",
               "Frames acknowledged but already merged.",
               c.duplicates);
    counterRow("pad_rx_protocol_errors_total",
               "Connections dropped for malformed frames.",
               c.protocolErrors);
    os << "# HELP pad_rx_sources Distinct sources seen.\n"
       << "# TYPE pad_rx_sources gauge\n"
       << "pad_rx_sources " << sourceCount() << '\n';
    return out + os.str();
}

std::string
ReceiverServer::dumpMerged() const
{
    std::map<std::string, std::int64_t> lastSeq;
    std::map<std::string, double> scalars;
    std::map<std::string, std::uint64_t> counterStats;
    {
        std::lock_guard<std::mutex> lock(mu_);
        lastSeq = lastSeq_;
        scalars = scalars_;
        counterStats = counterStats_;
    }

    // Only merged payload state goes into the dump — transport
    // counters (connections, duplicates) vary with retry timing and
    // would break the replay byte-identity contract.
    std::ostringstream os;
    os << "pad-rx-dump v1\n";
    for (const auto &[source, seq] : lastSeq)
        os << "source " << source << " last_seq " << seq << '\n';
    for (const TelemetryHub::SeriesSummary &s : hub_.summary())
        os << "series " << s.name << " count " << s.count << " min "
           << JsonWriter::formatDouble(s.min) << " max "
           << JsonWriter::formatDouble(s.max) << " mean "
           << JsonWriter::formatDouble(s.mean) << " last_tick "
           << s.last.when << " last_value "
           << JsonWriter::formatDouble(s.last.value) << '\n';
    for (const auto &[name, value] : scalars)
        os << "scalar " << name << ' '
           << JsonWriter::formatDouble(value) << '\n';
    for (const auto &[name, value] : counterStats)
        os << "counter " << name << ' ' << value << '\n';
    return os.str();
}

ReceiverServer::Counters
ReceiverServer::counters() const
{
    Counters c;
    c.connections = connections_.load(std::memory_order_relaxed);
    c.batches = batches_.load(std::memory_order_relaxed);
    c.statsBatches = statsBatches_.load(std::memory_order_relaxed);
    c.samples = samples_.load(std::memory_order_relaxed);
    c.duplicates = duplicates_.load(std::memory_order_relaxed);
    c.protocolErrors = protocolErrors_.load(std::memory_order_relaxed);
    return c;
}

std::size_t
ReceiverServer::sourceCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lastSeq_.size();
}

Tick
ReceiverServer::maxTick() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return maxTick_;
}

} // namespace pad::telemetry
