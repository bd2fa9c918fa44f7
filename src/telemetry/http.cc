#include "telemetry/http.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace pad::telemetry {

bool
sendAll(int fd, std::string_view data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

MetricsHttpServer::MetricsHttpServer(int port, Renderer renderer)
    : requestedPort_(port), renderer_(std::move(renderer))
{
}

MetricsHttpServer::~MetricsHttpServer()
{
    stop();
}

bool
MetricsHttpServer::start(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = what + ": " + std::strerror(errno);
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
    addr.sin_port =
        htons(static_cast<std::uint16_t>(requestedPort_));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        return fail("bind");
    if (::listen(listenFd_, 4) < 0)
        return fail("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);

    stop_ = false;
    thread_ = std::thread([this] { serveLoop(); });
    running_ = true;
    return true;
}

void
MetricsHttpServer::stop()
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
MetricsHttpServer::serveLoop()
{
    while (!stop_) {
        pollfd pfd{};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 100 /* ms */);
        if (ready <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        handleConnection(fd);
        ::close(fd);
    }
}

void
MetricsHttpServer::handleConnection(int fd)
{
    // Read until the end of the request headers (or a sane cap);
    // the request body, if any, is irrelevant for GET.
    std::string request;
    char buf[1024];
    while (request.size() < 8192 &&
           request.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        request.append(buf, static_cast<std::size_t>(n));
    }

    const std::size_t lineEnd = request.find("\r\n");
    const std::string firstLine =
        request.substr(0, lineEnd == std::string::npos
                              ? request.size()
                              : lineEnd);

    std::string status = "404 Not Found";
    std::string body = "not found\n";
    std::string contentType = "text/plain; charset=utf-8";
    if (firstLine.rfind("GET /metrics", 0) == 0 ||
        firstLine.rfind("GET / ", 0) == 0) {
        status = "200 OK";
        body = renderer_ ? renderer_() : std::string();
        contentType = "text/plain; version=0.0.4; charset=utf-8";
    } else if (firstLine.rfind("GET /healthz", 0) == 0) {
        // Liveness probe: the accept thread answering at all is the
        // health signal, so the body is a constant — the same
        // pad_service_up sample the full exposition carries, without
        // paying for a renderer pass on every probe.
        status = "200 OK";
        body = "pad_service_up 1\n";
    }

    std::string response = "HTTP/1.1 " + status +
                           "\r\nContent-Type: " + contentType +
                           "\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    sendAll(fd, response);
}

} // namespace pad::telemetry
