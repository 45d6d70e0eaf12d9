#include "server.hh"

#include <cerrno>

#include <poll.h>
#include <unistd.h>

#include "api/service.hh"

namespace qmh {
namespace server {

namespace {

/** Pause before a paused accept is retried with no connection ended. */
constexpr int accept_retry_ms = 100;

} // namespace

Server::Server(ServerConfig config)
    : _config(std::move(config)),
      _session(sweep::SweepOptions{_config.threads,
                                   _config.base_seed}),
      _cache(_config.base_seed, _config.cache)
{
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0)
        return; // _wake_read stays invalid; create() refuses to run
    _wake_read = Fd(fds[0]);
    _wake_write = Fd(fds[1]);
    setNonBlocking(_wake_read.get());
    setNonBlocking(_wake_write.get());
}

Server::~Server() = default;

api::Outcome<std::unique_ptr<Server>>
Server::create(ServerConfig config)
{
    std::unique_ptr<Server> server(new Server(std::move(config)));
    if (!server->_wake_read.valid())
        return api::Error{api::ErrorCode::Unavailable,
                          "cannot create the server's wake pipe",
                          {}};
    if (!server->_config.cache_path.empty()) {
        const auto problem =
            server->_cache.open(server->_config.cache_path);
        if (!problem.empty())
            return api::Error{api::ErrorCode::Unavailable,
                              "cache '" +
                                  server->_config.cache_path +
                                  "': " + problem,
                              {}};
    }
    auto listener = Listener::create(server->_config.host,
                                     server->_config.port);
    if (!listener.ok())
        return listener.error();
    server->_listener = std::move(listener).value();
    return server;
}

void
Server::acceptPending()
{
    for (;;) {
        auto [client, exhausted] = _listener.accept();
        if (!client.valid()) {
            // The pending client keeps the listener readable; polling
            // it again before a descriptor is freed would spin.
            _accept_paused = exhausted;
            return;
        }
        if (_connections.size() >= _config.max_clients) {
            // A typed refusal the client can parse; one best-effort
            // send — a refused client gets no flow control.
            const auto record =
                api::recordError(
                    "", api::Error{api::ErrorCode::Unavailable,
                                   "server at capacity (" +
                                       std::to_string(
                                           _config.max_clients) +
                                       " clients)",
                                   {}}) +
                "\n";
            sendSome(client.get(), record.data(), record.size());
            ++_stats.rejected;
            continue;
        }
        ++_stats.accepted;
        _connections.push_back(std::make_unique<Connection>(
            std::move(client), _session, [this]() { wakeup(); },
            &_cache, _config.connection));
    }
}

void
Server::absorb(const ConnectionStats &stats)
{
    _stats.requests += stats.requests;
    _stats.rows += stats.rows;
    _stats.errors += stats.errors;
    _stats.simulated += stats.simulated;
}

void
Server::cycle()
{
    bool shutdown = false;
    for (const auto &connection : _connections) {
        connection->pump();
        if (connection->shutdownFlushed())
            shutdown = true;
    }
    // Erasing destroys a finished connection (cancelling its job)
    // and frees its descriptor for a client waiting to be accepted.
    if (std::erase_if(_connections, [this](const auto &connection) {
            if (!connection->finished())
                return false;
            absorb(connection->stats());
            return true;
        }))
        _accept_paused = false;
    if (shutdown)
        _stop.store(true, std::memory_order_release);
}

void
Server::wakeup()
{
    const char byte = 0;
    // A full pipe already guarantees a pending wakeup; EAGAIN is
    // success for this purpose, and other failures only cost latency
    // (the next fd event still runs a round).
    [[maybe_unused]] const auto ignored =
        ::write(_wake_write.get(), &byte, 1);
}

void
Server::serve()
{
    // Slot 0 is the wake pipe, slot 1 the listener (fd -1, which
    // poll() skips, while accepting is paused), and slot 2 + i
    // connection i. A connection accepted during dispatch has no slot
    // yet; cycle() pumps it and the next round polls it.
    std::vector<pollfd> fds;
    while (!_stop.load(std::memory_order_acquire)) {
        fds.clear();
        fds.push_back(pollfd{_wake_read.get(), POLLIN, 0});
        fds.push_back(
            pollfd{_accept_paused ? -1 : _listener.fd(), POLLIN, 0});
        for (const auto &connection : _connections)
            fds.push_back(pollfd{connection->fd(),
                                 connection->wantedEvents(), 0});

        // A paused accept is also retried after a quiet interval: the
        // descriptors may be held outside this server (ENFILE is
        // system-wide), where no erased connection would free one.
        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   _accept_paused ? accept_retry_ms : -1);
        if (ready < 0 && errno != EINTR)
            break; // poll itself failed: unrecoverable loop state
        if (ready == 0)
            _accept_paused = false;
        if (ready > 0) {
            char sink[256];
            if (fds[0].revents & POLLIN)
                while (::read(_wake_read.get(), sink, sizeof sink) > 0) {
                }
            if (fds[1].revents != 0)
                acceptPending();
            for (std::size_t i = 2; i < fds.size(); ++i)
                if (fds[i].revents != 0)
                    _connections[i - 2]->onEvent(fds[i].revents);
        }
        cycle();
    }
}

void
Server::stop()
{
    _stop.store(true, std::memory_order_release);
    wakeup();
}

ServerStats
Server::stats() const
{
    ServerStats stats = _stats;
    for (const auto &connection : _connections) {
        const auto &live = connection->stats();
        stats.requests += live.requests;
        stats.rows += live.rows;
        stats.errors += live.errors;
        stats.simulated += live.simulated;
    }
    stats.cache = _cache.stats();
    return stats;
}

} // namespace server
} // namespace qmh
