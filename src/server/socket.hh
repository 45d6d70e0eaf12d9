/**
 * @file
 * Thin portable layer over POSIX stream sockets for the experiment
 * server: an owning descriptor, a bound listener, and non-blocking
 * send/recv wrappers that fold errno into three caller-visible
 * states. Everything a request path can hit is a typed Outcome
 * (ErrorCode::Unavailable — the transport refused, nothing about the
 * experiment was wrong); no call here throws or aborts.
 *
 * Only this file and socket.cc touch <sys/socket.h>; the server's
 * poll loop, connections and clients above it deal in Fd values and
 * IoStatus.
 */

#ifndef QMH_SERVER_SOCKET_HH
#define QMH_SERVER_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "api/outcome.hh"

namespace qmh {
namespace server {

/** Owning socket/pipe descriptor (move-only, closes on destruction). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : _fd(fd) {}
    ~Fd() { reset(); }

    Fd(Fd &&other) noexcept : _fd(other.release()) {}
    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset();
            _fd = other.release();
        }
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    bool valid() const { return _fd >= 0; }
    int get() const { return _fd; }

    /** Give up ownership without closing. */
    int
    release()
    {
        return std::exchange(_fd, -1);
    }

    /** Close now (idempotent). */
    void reset();

  private:
    int _fd = -1;
};

/** Outcome of one non-blocking send/recv attempt. */
enum class IoStatus {
    Ready,      ///< moved >= 1 byte
    WouldBlock, ///< no progress now; wait for poll readiness
    Closed      ///< peer closed (recv: EOF; send: EPIPE/ECONNRESET)
};

/** One non-blocking IO attempt: status plus bytes moved (Ready). */
struct IoResult
{
    IoStatus status = IoStatus::WouldBlock;
    std::size_t bytes = 0;
};

/** Mark @p fd non-blocking; false (with errno intact) on failure. */
bool setNonBlocking(int fd);

/**
 * recv() into @p buffer, at most @p capacity bytes, without blocking.
 * Hard transport errors report as Closed — for a server, an unusable
 * peer and a departed one need the same response (drop the client).
 */
IoResult recvSome(int fd, char *buffer, std::size_t capacity);

/**
 * send() up to @p size bytes without blocking and without SIGPIPE;
 * partial sends report Ready with the short count.
 */
IoResult sendSome(int fd, const char *data, std::size_t size);

/**
 * A bound, listening, non-blocking TCP socket. create() resolves
 * @p host (numeric or "localhost"), binds (@p port 0 picks an
 * ephemeral port — boundPort() reports the real one), listens, and
 * returns Unavailable with the failing step in the message when any
 * of that is refused.
 */
class Listener
{
  public:
    static api::Outcome<Listener>
    create(const std::string &host, std::uint16_t port,
           int backlog = 64);

    int fd() const { return _fd.get(); }
    std::uint16_t boundPort() const { return _port; }

    /** One accept attempt (accept()). */
    struct Accepted
    {
        Fd fd; ///< the connection, already non-blocking; or invalid
        /**
         * The process is out of descriptors (EMFILE, ENFILE): a
         * client may still be pending, so the listener stays
         * readable until a descriptor is freed.
         */
        bool exhausted = false;
    };

    /**
     * Accept one pending connection. An invalid fd means nothing was
     * pending (or the attempt must be retried), or, with exhausted
     * set, that no descriptor is free; never a fatal condition.
     */
    Accepted accept() const;

  private:
    Fd _fd;
    std::uint16_t _port = 0;
};

/**
 * Blocking connect to @p host:@p port (the client side; servers never
 * call this). The returned socket stays blocking — Client does
 * lockstep request/response IO.
 */
api::Outcome<Fd> connectTcp(const std::string &host,
                            std::uint16_t port);

} // namespace server
} // namespace qmh

#endif // QMH_SERVER_SOCKET_HH
