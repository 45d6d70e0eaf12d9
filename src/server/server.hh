/**
 * @file
 * The experiment server: many concurrent JSONL clients over one
 * api::Session worker pool and one opt::ResultCache.
 *
 * Composition (single loop thread, workers only simulate):
 *
 *   Listener ──accept──▶ Connection (one per client)
 *       │                    │  parse → Session jobs → records
 *   EventLoop ◀─wakeup()─ pool workers (SubmitOptions::on_retire)
 *       │                    │
 *       └── cycle(): every connection pumps — bounded work each,
 *           registration order, so no client can starve another.
 *
 * Capacity: at most max_clients concurrent connections; an accept
 * beyond that is answered with a single "unavailable" error record
 * and closed — a typed refusal, not a silent drop. Every client's
 * bytes follow the api/service.hh protocol exactly (the request
 * steps of stdio qmh_service, connection.hh), and a
 * {"op":"shutdown"} request from any client stops serve() once its
 * done record is flushed.
 *
 * Destruction order matters and is pinned by member order: the
 * EventLoop is declared first (destroyed last) because pool workers
 * ring its wakeup pipe from on_retire hooks; the Session is
 * destroyed before the loop, and its teardown cancels jobs and joins
 * the pool, after which nothing can touch the pipe.
 */

#ifndef QMH_SERVER_SERVER_HH
#define QMH_SERVER_SERVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/session.hh"
#include "opt/result_cache.hh"
#include "server/connection.hh"
#include "server/event_loop.hh"
#include "server/socket.hh"

namespace qmh {
namespace server {

struct ServerConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral; see Server::port()
    unsigned threads = 0;   ///< pool size; 0 = hardware threads
    std::uint64_t base_seed = 0x243F6A8885A308D3ULL;
    std::size_t max_clients = 64;
    std::string cache_path;       ///< JSONL log; "" = memory only
    opt::ResultCacheConfig cache; ///< unbacked LRU bound
    ConnectionConfig connection;
};

/** Lifetime totals (finished connections included). */
struct ServerStats
{
    std::size_t accepted = 0;  ///< connections admitted
    std::size_t rejected = 0;  ///< refused at max_clients
    std::size_t requests = 0;  ///< well-formed requests served
    std::size_t rows = 0;      ///< row records written
    std::size_t errors = 0;    ///< error records written
    std::size_t simulated = 0; ///< points actually run
    opt::ResultCacheStats cache;
};

class Server
{
  public:
    /**
     * Bind and get ready to serve. Typed errors (Unavailable) for a
     * refused bind, an unparseable host, an unopenable cache file or
     * a failed self-pipe; never a panic for environment problems.
     */
    [[nodiscard]] static api::Outcome<std::unique_ptr<Server>>
    create(ServerConfig config);

    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound port (resolves port 0 to the real ephemeral one). */
    std::uint16_t port() const { return _listener.boundPort(); }

    /**
     * Serve until a client's shutdown request (or stop()). Runs on
     * the calling thread; everything socket-side happens here.
     */
    void serve();

    /** Thread-safe: end serve() after its current cycle. */
    void stop();

    /** Totals so far (call after serve() for the final numbers). */
    ServerStats stats() const;

    opt::ResultCache &cache() { return _cache; }

  private:
    explicit Server(ServerConfig config);

    void acceptPending();
    void cycle();
    /** Fold a finished connection's counters into the totals. */
    void absorb(const ConnectionStats &stats);

    ServerConfig _config;

    // Destroyed last: workers ring its pipe until the Session (and
    // with it the pool) is torn down below.
    EventLoop _loop;
    api::Session _session;
    opt::ResultCache _cache;
    Listener _listener;
    std::vector<std::unique_ptr<Connection>> _connections;
    ServerStats _stats;
};

} // namespace server
} // namespace qmh

#endif // QMH_SERVER_SERVER_HH
