/**
 * @file
 * One client of the experiment server: a non-blocking socket speaking
 * the JSONL protocol of api/service.hh, mapped onto api::Session jobs
 * and the server's SharedCache.
 *
 * Byte contract: for any input a client could also pipe into
 * `qmh_service` on stdio, the records this connection writes are
 * byte-identical to that stdio run — same formatters (api::record*),
 * same framing, same error text, same prefix semantics when a point
 * fails. The only divergences are wire-only conditions stdio cannot
 * hit (an oversized line, the max-clients rejection), which surface
 * as "unavailable"/"bad_request" error records.
 *
 * Requests are served strictly in arrival order, one at a time per
 * connection (the stdio loop is sequential; matching it is what makes
 * the byte contract testable), but many connections interleave freely
 * on the shared pool. Per-cycle work is bounded — one recv, a capped
 * emission batch, one send — and the outbound buffer has a high-water
 * mark: when a slow reader stops draining, emission pauses for that
 * connection only; job rows keep landing in the JobState and other
 * clients keep streaming.
 *
 * Cache path: a request with seed_mode "spec" whose effective base
 * seed equals the cache's consults SharedCache per spec — hits and
 * intra-request duplicates replay without simulating, misses run as
 * one job whose rows are inserted as they are incorporated. The
 * accepted record and the leading resolved rows are flushed before
 * that job is submitted. Emission order is request order; it stalls
 * at the first unresolved slot, so a failed miss truncates the stream
 * exactly where stdio would.
 */

#ifndef QMH_SERVER_CONNECTION_HH
#define QMH_SERVER_CONNECTION_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "api/service.hh"
#include "api/session.hh"
#include "common/json.hh"
#include "server/event_loop.hh"
#include "server/shared_cache.hh"
#include "server/socket.hh"

namespace qmh {
namespace server {

/** Per-connection knobs (Server fills these from its config). */
struct ConnectionConfig
{
    std::size_t max_line = 1u << 20;      ///< request line cap
    std::size_t max_buffered = 1u << 20;  ///< out high-water mark
    std::size_t max_pending_lines = 8;    ///< parsed-but-unserved cap
};

/** What one connection contributed (read after it finishes). */
struct ConnectionStats
{
    std::size_t requests = 0;  ///< well-formed requests served
    std::size_t rows = 0;      ///< row records written
    std::size_t errors = 0;    ///< error records written
    std::size_t simulated = 0; ///< points actually run (not replayed)
};

class Connection
{
  public:
    /** @p cache may be null (no shared cache configured). */
    Connection(Fd socket, api::Session &session, EventLoop &loop,
               SharedCache *cache, ConnectionConfig config);

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Cancels the active job; pending rows are simply dropped. */
    ~Connection();

    int fd() const { return _socket.get(); }

    /** poll() handler: bounded read and/or write for this cycle. */
    void onEvent(short revents);

    /**
     * Make all progress that needs no fresh socket readiness: serve
     * queued lines, harvest retired job rows, emit records up to the
     * buffer watermark, attempt a send. Runs every loop cycle (job
     * retirement wakeups land here).
     */
    void pump();

    /** Event mask this connection currently needs. */
    short wantedEvents() const;

    /** Nothing left to do: the Server should drop this connection. */
    bool finished() const;

    /**
     * A shutdown request was served and its done record fully
     * flushed; the Server should stop its loop.
     */
    bool shutdownFlushed() const;

    const ConnectionStats &stats() const { return _stats; }

  private:
    /** One point of the active request, in request order. */
    struct Slot
    {
        enum class Kind { Job, Cached, Dup };
        Kind kind = Kind::Job;
        std::size_t job_ordinal = 0; ///< Kind::Job: index among misses
        std::size_t dup_of = 0;      ///< Kind::Dup: earlier slot
        std::vector<sweep::Cell> row; ///< full row, seed cell included
        bool resolved = false;
    };

    /** The in-flight request (one at a time, arrival order). */
    struct Active
    {
        api::ServiceRequest request;
        std::vector<std::string> columns;
        std::vector<Slot> slots;
        std::vector<std::string> keys;       ///< canonical specs
        std::vector<std::uint64_t> seeds;    ///< per-slot seed
        std::optional<api::JobHandle> job;   ///< misses (may be none)
        std::vector<std::size_t> job_slots;  ///< ordinal -> slot
        std::size_t harvested = 0;           ///< job rows taken
        std::size_t next_emit = 0;
        std::size_t streamed = 0;
        bool use_cache = false;
        bool limit_cancelled = false;
    };

    void readSome();
    void queueLine(json::LineSplitter::Line line);
    void serveNextLine();
    void startRequest(api::ServiceRequest request);
    void advanceActive();
    void harvestJobRows();
    void finalizeActive(bool stream_ended);
    void emitRow(const std::vector<sweep::Cell> &row);
    void emit(const std::string &record);
    void flushSome();
    void dropPeer();

    Fd _socket;
    api::Session &_session;
    EventLoop &_loop;
    SharedCache *_cache;
    ConnectionConfig _config;

    json::LineSplitter _splitter;
    std::deque<json::LineSplitter::Line> _lines;
    std::optional<Active> _active;
    std::string _out;          ///< bytes awaiting the socket
    std::size_t _out_head = 0; ///< sent prefix of _out
    std::size_t _emitted = 0;  ///< lifetime bytes emitted
    std::size_t _flushed = 0;  ///< lifetime bytes sent

    bool _read_closed = false; ///< EOF or reading intentionally over
    bool _peer_gone = false;   ///< socket unusable; drop everything
    bool _shutdown = false;    ///< shutdown op served
    ConnectionStats _stats;
};

} // namespace server
} // namespace qmh

#endif // QMH_SERVER_CONNECTION_HH
