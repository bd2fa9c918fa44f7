/**
 * @file
 * Minimal single-threaded HTTP endpoint for Prometheus scrapes.
 *
 * Binds 127.0.0.1:<port> and serves `GET /metrics` (and `GET /`)
 * with whatever the caller-supplied renderer returns at request
 * time, plus a constant `GET /healthz` liveness probe (200 with the
 * `pad_service_up 1` sample, no renderer call); every other path is
 * a 404. One background thread accepts
 * and answers one connection at a time — a scrape endpoint for a
 * simulator needs nothing more, and a single thread keeps the
 * determinism story trivial: the renderer is the only code that
 * touches shared state, and it reads through thread-safe snapshots
 * (TelemetryHub::summary(), a mutex-guarded stats copy).
 *
 * Port 0 asks the kernel for a free port; port() reports the real
 * one after start(), so parallel test jobs and daemons can bind
 * without coordinating port numbers. The server never touches the
 * simulation. A failed start() fills the caller's error string with
 * a one-line reason; callers that promised an endpoint (padsim
 * --metrics-port, the padd daemon) must treat it as fatal — print
 * the error and exit nonzero — rather than run with a silently dead
 * endpoint.
 */

#ifndef PAD_TELEMETRY_HTTP_H
#define PAD_TELEMETRY_HTTP_H

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

namespace pad::telemetry {

/**
 * Write all of @p data to socket @p fd. Sends use MSG_NOSIGNAL, so a
 * closed peer is a false return rather than SIGPIPE.
 */
bool sendAll(int fd, std::string_view data);

class MetricsHttpServer
{
  public:
    /** Produces the exposition body; called per request. */
    using Renderer = std::function<std::string()>;

    MetricsHttpServer(int port, Renderer renderer);
    ~MetricsHttpServer();

    MetricsHttpServer(const MetricsHttpServer &) = delete;
    MetricsHttpServer &operator=(const MetricsHttpServer &) = delete;

    /**
     * Bind, listen, and spawn the accept thread. Returns false (and
     * fills @p error) when the socket cannot be set up.
     */
    bool start(std::string *error = nullptr);

    /** Signal the accept loop and join the thread. Idempotent. */
    void stop();

    /** True between a successful start() and stop(). */
    bool running() const { return running_; }

    /** Actual bound port (resolves port 0) after start(). */
    int port() const { return port_; }

  private:
    void serveLoop();
    void handleConnection(int fd);

    int requestedPort_;
    Renderer renderer_;
    int listenFd_ = -1;
    int port_ = 0;
    std::atomic<bool> stop_{false};
    bool running_ = false;
    std::thread thread_;
};

} // namespace pad::telemetry

#endif // PAD_TELEMETRY_HTTP_H
