#include "service/control.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "telemetry/http.h"

namespace pad::service {

using telemetry::sendAll;

ControlServer::ControlServer(int port, Handler handler)
    : requestedPort_(port), handler_(std::move(handler))
{
}

ControlServer::~ControlServer()
{
    stop();
}

bool
ControlServer::start(std::string *error)
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
ControlServer::stop()
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
ControlServer::serveLoop()
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
ControlServer::handleConnection(int fd)
{
    std::string buffer;
    char chunk[1024];
    while (!stop_) {
        // Serve every complete line already buffered before reading
        // more; one response line per command line, in order.
        std::size_t nl;
        while ((nl = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, nl);
            buffer.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            const std::string response =
                handler_ ? handler_(line) : std::string("{}");
            if (!sendAll(fd, response + "\n"))
                return;
        }

        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 100 /* ms */);
        if (ready < 0)
            return;
        if (ready == 0)
            continue;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return; // client closed (or error): connection done
        buffer.append(chunk, static_cast<std::size_t>(n));
        if (buffer.size() > 1 << 20)
            return; // a megabyte without a newline is not a command
    }
}

ControlClient::~ControlClient()
{
    close();
}

bool
ControlClient::connect(int port, std::string *error)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        if (error)
            *error = std::string("connect: ") + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

void
ControlClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

std::optional<std::string>
ControlClient::request(const std::string &line, int timeoutMs)
{
    if (fd_ < 0)
        return std::nullopt;
    if (!sendAll(fd_, line + "\n"))
        return std::nullopt;

    char chunk[1024];
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            std::string response = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            if (!response.empty() && response.back() == '\r')
                response.pop_back();
            return response;
        }
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, timeoutMs);
        if (ready <= 0)
            return std::nullopt;
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return std::nullopt;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace pad::service
