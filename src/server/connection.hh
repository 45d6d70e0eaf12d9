/**
 * @file
 * The one request path of the JSONL protocol (api/service.hh), on
 * both transports: runService serves stdio, and a Connection serves
 * one client of the experiment server over a non-blocking socket.
 * Both serve each request as one opt::CachedJob, through the same
 * steps: decode the line, validate and emit the accepted record, hand
 * out rows in request order, then wait for the job and emit the
 * error record of a failure that ended the stream and the done
 * record. A Connection also has the server's result store
 * (opt::ResultCache); runService has none.
 *
 * Byte contract: for any input a client could also pipe into
 * `qmh_service` on stdio, the records a connection writes are
 * byte-identical to that stdio run. The only divergences are
 * wire-only conditions stdio cannot hit (an oversized line, the
 * max-clients rejection), which surface as "unavailable"/
 * "bad_request" error records.
 *
 * Server::serve() drives every Connection from its one poll loop:
 * onEvent() when the socket is ready, pump() every round, and the
 * on_retire hook the Server passes in (it rings the loop's wake pipe)
 * for each job the connection starts.
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
 * Cache path: in seed_mode "spec" a CachedJob replays store hits and
 * intra-request repeats and runs only the misses; in "index" mode
 * every point runs. Misses past the request's limit never run. A
 * connection flushes the accepted record and the leading resolved
 * rows before the misses are submitted, so the first row never waits
 * behind simulation work. Rows go out in request order, and a failed
 * miss ends the stream exactly where stdio would.
 */

#ifndef QMH_SERVER_CONNECTION_HH
#define QMH_SERVER_CONNECTION_HH

#include <cstddef>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "api/service.hh"
#include "api/session.hh"
#include "common/json.hh"
#include "opt/cached_job.hh"
#include "server/socket.hh"

namespace qmh {
namespace server {

/** Per-connection knobs (Server fills these from its config). */
struct ConnectionConfig
{
    std::size_t max_line = 1u << 20;      ///< request line cap
    std::size_t max_buffered = 1u << 20;  ///< out high-water mark
};

/** What one serve loop contributed: a connection (read after it
 *  finishes) or a runService call. */
struct ConnectionStats
{
    std::size_t requests = 0;  ///< well-formed requests served
    std::size_t rows = 0;      ///< row records written
    std::size_t errors = 0;    ///< error records written
    std::size_t simulated = 0; ///< points actually run (not replayed)
};

/**
 * Serve JSONL requests from @p in until EOF or a shutdown request
 * (blank lines ignored), writing each record to @p out as it is
 * produced. Errors are records, not exits.
 */
ConnectionStats runService(api::Session &session, std::istream &in,
                           std::ostream &out);

class Connection
{
  public:
    /**
     * @p on_retire is each job's SubmitOptions::on_retire: it runs on
     * pool threads and must wake the loop that pumps this connection.
     * @p cache may be null (no shared cache configured).
     */
    Connection(Fd socket, api::Session &session,
               std::function<void()> on_retire, opt::ResultCache *cache,
               ConnectionConfig config);

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return _socket.get(); }

    /** Socket readiness: bounded read and/or write for this round. */
    void onEvent(short revents);

    /**
     * Make all progress that needs no fresh socket readiness: serve
     * queued lines, harvest retired job rows, emit records up to the
     * buffer watermark, attempt a send. Runs every loop round (job
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
    void readSome();
    void queueLine(json::LineSplitter::Line line);
    void serveNextLine();
    void startRequest(api::ServiceRequest request);
    void advanceRequest();
    void finishRequest();
    void emit(const std::string &record);
    void flushSome();
    void dropPeer();

    Fd _socket;
    api::Session &_session;
    std::function<void()> _on_retire;
    opt::ResultCache *_cache;
    ConnectionConfig _config;

    json::LineSplitter _splitter;
    std::deque<json::LineSplitter::Line> _lines;
    /** The in-flight request (one at a time, arrival order): its id,
     *  its job (engaged while it runs) and the rows streamed. */
    std::string _request_id;
    std::optional<opt::CachedJob> _job;
    std::size_t _streamed = 0;
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
