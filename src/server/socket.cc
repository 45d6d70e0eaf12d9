#include "socket.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0 // platforms without it get best-effort EPIPE
#endif

namespace qmh {
namespace server {

namespace {

api::Error
unavailable(std::string step)
{
    return api::Error{api::ErrorCode::Unavailable,
                      step + ": " + std::strerror(errno),
                      {}};
}

/**
 * Numeric IPv4 text (or "localhost") to network order. The server is
 * a loopback/LAN tool; a resolver dependency would buy nothing the
 * tests or the CLI need.
 */
bool
parseHost(const std::string &host, in_addr &out)
{
    if (host.empty() || host == "localhost")
        return inet_pton(AF_INET, "127.0.0.1", &out) == 1;
    return inet_pton(AF_INET, host.c_str(), &out) == 1;
}

} // namespace

void
Fd::reset()
{
    if (_fd >= 0)
        ::close(_fd);
    _fd = -1;
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0)
        return false;
    return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

IoResult
recvSome(int fd, char *buffer, std::size_t capacity)
{
    for (;;) {
        const ssize_t n = ::recv(fd, buffer, capacity, 0);
        if (n > 0)
            return {IoStatus::Ready, static_cast<std::size_t>(n)};
        if (n == 0)
            return {IoStatus::Closed, 0};
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return {IoStatus::WouldBlock, 0};
        return {IoStatus::Closed, 0};
    }
}

IoResult
sendSome(int fd, const char *data, std::size_t size)
{
    for (;;) {
        const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
        if (n >= 0)
            return {IoStatus::Ready, static_cast<std::size_t>(n)};
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return {IoStatus::WouldBlock, 0};
        return {IoStatus::Closed, 0};
    }
}

api::Outcome<Listener>
Listener::create(const std::string &host, std::uint16_t port,
                 int backlog)
{
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    if (!parseHost(host, address.sin_addr))
        return api::Error{api::ErrorCode::Unavailable,
                          "cannot parse listen host '" + host +
                              "' (numeric IPv4 or \"localhost\")",
                          {}};

    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return unavailable("socket()");
    const int enable = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof enable);
    if (::bind(fd.get(),
               reinterpret_cast<const sockaddr *>(&address),
               sizeof address) != 0)
        return unavailable("bind()");
    if (::listen(fd.get(), backlog) != 0)
        return unavailable("listen()");
    if (!setNonBlocking(fd.get()))
        return unavailable("fcntl(O_NONBLOCK)");

    sockaddr_in bound{};
    socklen_t length = sizeof bound;
    if (::getsockname(fd.get(),
                      reinterpret_cast<sockaddr *>(&bound),
                      &length) != 0)
        return unavailable("getsockname()");

    Listener listener;
    listener._fd = std::move(fd);
    listener._port = ntohs(bound.sin_port);
    return listener;
}

Listener::Accepted
Listener::accept() const
{
    for (;;) {
        const int fd = ::accept(_fd.get(), nullptr, nullptr);
        if (fd >= 0) {
            if (!setNonBlocking(fd)) {
                ::close(fd);
                return {};
            }
            const int enable = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable,
                         sizeof enable);
            return {Fd(fd)};
        }
        if (errno == EINTR)
            continue;
        return {Fd(), errno == EMFILE || errno == ENFILE};
    }
}

api::Outcome<Fd>
connectTcp(const std::string &host, std::uint16_t port)
{
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    if (!parseHost(host, address.sin_addr))
        return api::Error{api::ErrorCode::Unavailable,
                          "cannot parse host '" + host +
                              "' (numeric IPv4 or \"localhost\")",
                          {}};

    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid())
        return unavailable("socket()");
    for (;;) {
        if (::connect(fd.get(),
                      reinterpret_cast<const sockaddr *>(&address),
                      sizeof address) == 0)
            break;
        if (errno == EINTR)
            continue;
        return unavailable("connect()");
    }
    const int enable = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &enable,
                 sizeof enable);
    return fd;
}

} // namespace server
} // namespace qmh
