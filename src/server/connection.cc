#include "connection.hh"

#include <istream>
#include <ostream>
#include <utility>

#include <poll.h>


namespace qmh {
namespace server {

namespace {

constexpr std::size_t kReadChunk = 16 * 1024;
constexpr std::size_t kSendBurst = 4; ///< send() attempts per cycle

api::Error
badRequest(std::string message)
{
    return api::Error{api::ErrorCode::BadRequest,
                      std::move(message),
                      {}};
}

// The steps both loops take. Each writes its records through @p emit,
// one record per call, newline excluded.

/**
 * The well-formed request of @p line (counted), or nullopt for a blank
 * line or one its error record answers. A shutdown request is
 * answered here with its empty done record; the caller ends its loop.
 */
template <typename Emit>
std::optional<api::ServiceRequest>
admitLine(const std::string &line, ConnectionStats &stats,
          const Emit &emit)
{
    auto decoded = api::decodeServiceLine(line);
    if (!decoded)
        return std::nullopt;
    if (!decoded->request.ok()) {
        emit(api::recordError(decoded->id, decoded->request.error()));
        ++stats.errors;
        return std::nullopt;
    }
    ++stats.requests;
    if (decoded->request.value().op == api::ServiceOp::Shutdown)
        emit(api::recordDone(decoded->request.value().id, 0, 0, false));
    return std::move(decoded->request).value();
}

/**
 * Validate @p request, engage @p job as its CachedJob over @p cache
 * (may be null) and emit the accepted record. A batch that fails
 * validation gets its error record instead and leaves @p job empty.
 */
template <typename Emit>
void
openRequest(const api::ServiceRequest &request, api::Session &session,
            opt::ResultCache *cache, std::optional<opt::CachedJob> &job,
            ConnectionStats &stats, const Emit &emit)
{
    auto validated = api::validateExperiments(request.specs);
    if (!validated.ok()) {
        emit(api::recordError(request.id, validated.error()));
        ++stats.errors;
        return;
    }
    job.emplace(std::move(validated).value(), request.seed_mode,
                request.seed.value_or(session.baseSeed()), cache,
                request.limit);
    emit(api::recordAccepted(request.id, job->totalPoints(),
                             job->columns()));
}

/**
 * The tail of request @p id once its row stream has ended: wait for
 * @p job, then emit the error record of a failure that ended the
 * stream, and the done record.
 */
template <typename Emit>
void
closeRequest(opt::CachedJob &job, const std::string &id,
             ConnectionStats &stats, const Emit &emit)
{
    const auto result = job.wait();
    stats.simulated += result.simulated;
    if (result.failure) {
        emit(api::recordError(id, *result.failure));
        ++stats.errors;
    }
    const std::size_t total = job.totalPoints();
    emit(api::recordDone(id, result.rows, total, result.rows < total));
    stats.rows += result.rows;
}

} // namespace

ConnectionStats
runService(api::Session &session, std::istream &in, std::ostream &out)
{
    ConnectionStats stats;
    const auto emit = [&out](const std::string &record) {
        out << record << std::endl;
    };
    std::string line;
    while (std::getline(in, line)) {
        const auto request = admitLine(line, stats, emit);
        if (!request)
            continue;
        if (request->op == api::ServiceOp::Shutdown)
            break;
        std::optional<opt::CachedJob> job;
        openRequest(*request, session, nullptr, job, stats, emit);
        if (!job)
            continue;
        job->start(session);
        std::size_t streamed = 0;
        while (const auto row = job->next())
            emit(api::recordRow(request->id, streamed++, job->columns(),
                                *row));
        closeRequest(*job, request->id, stats, emit);
    }
    return stats;
}

Connection::Connection(Fd socket, api::Session &session,
                       EventLoop &loop, opt::ResultCache *cache,
                       ConnectionConfig config)
    : _socket(std::move(socket)), _session(session), _loop(loop),
      _cache(cache), _config(config), _splitter(config.max_line)
{
}

void
Connection::onEvent(short revents)
{
    if (revents & (POLLERR | POLLNVAL)) {
        dropPeer();
        return;
    }
    // POLLHUP still allows draining buffered input; recv reports the
    // definitive EOF.
    if (revents & (POLLIN | POLLHUP))
        readSome();
    if (revents & POLLOUT)
        flushSome();
}

void
Connection::readSome()
{
    if (_peer_gone || _read_closed)
        return;
    char buffer[kReadChunk];
    const auto got = recvSome(_socket.get(), buffer, sizeof buffer);
    if (got.status == IoStatus::Closed) {
        _read_closed = true;
        if (auto tail = _splitter.finish())
            queueLine(std::move(*tail));
        return;
    }
    if (got.status != IoStatus::Ready)
        return;
    _splitter.feed(std::string_view(buffer, got.bytes));
    while (auto line = _splitter.next())
        queueLine(std::move(*line));
}

void
Connection::queueLine(json::LineSplitter::Line line)
{
    if (_shutdown)
        return; // the stdio loop reads nothing past a shutdown
    _lines.push_back(std::move(line));
}

void
Connection::serveNextLine()
{
    if (_job || _lines.empty() || _shutdown)
        return;
    auto line = std::move(_lines.front());
    _lines.pop_front();

    if (line.oversized) {
        // Wire-only condition: stdio lines are unbounded, socket
        // lines are not, and the record must say which cap fired.
        emit(api::recordError(
            "", badRequest("request line exceeds " +
                           std::to_string(_config.max_line) +
                           " bytes")));
        ++_stats.errors;
        return;
    }
    auto request = admitLine(
        line.text, _stats,
        [this](const std::string &record) { emit(record); });
    if (!request)
        return;
    if (request->op == api::ServiceOp::Shutdown) {
        _shutdown = true;
        _read_closed = true;
        _lines.clear();
        return;
    }
    startRequest(std::move(*request));
}

void
Connection::startRequest(api::ServiceRequest request)
{
    openRequest(request, _session, _cache, _job, _stats,
                [this](const std::string &record) { emit(record); });
    if (!_job)
        return;
    _request_id = std::move(request.id);
    _streamed = 0;

    // Put the leading resolved rows (store hits and their repeats) on
    // the wire before the misses wake a worker, so the first row never
    // waits behind simulation work that shares this CPU. Emission
    // stops at the first miss; a limit the leading rows already meet
    // finishes the request with nothing to simulate.
    advanceRequest();
    flushSome();
    if (_job) {
        EventLoop *loop = &_loop;
        _job->start(_session, [loop]() { loop->wakeup(); });
    }
}

void
Connection::advanceRequest()
{
    std::vector<sweep::Cell> row;
    while (_job) {
        if (_out.size() - _out_head > _config.max_buffered)
            return; // backpressure: resume once the reader drains
        switch (_job->poll(row)) {
          case api::RowPoll::Ready:
            emit(api::recordRow(_request_id, _streamed, _job->columns(),
                                row));
            ++_streamed;
            break;
          case api::RowPoll::Pending:
            return; // retirement wakeups bring the rest
          case api::RowPoll::End:
            finishRequest();
            return;
        }
    }
}

void
Connection::finishRequest()
{
    closeRequest(*_job, _request_id, _stats,
                 [this](const std::string &record) { emit(record); });
    _job.reset();
}

void
Connection::emit(const std::string &record)
{
    _out.append(record);
    _out.push_back('\n');
    _emitted += record.size() + 1;
}

void
Connection::pump()
{
    if (_peer_gone)
        return;
    // Run to quiescence: a round that consumes no line, emits no
    // byte and flushes no byte cannot make progress until the next
    // event (socket readiness or a job retirement wakeup). Stopping
    // any earlier can strand resolved rows forever — with the buffer
    // flushed empty there is no POLLOUT to re-arm and, once the job
    // has finished, no retirement left to ring the loop. Backpressure
    // still binds: at the high-water mark emission pauses, and when
    // the socket stops taking bytes the round goes quiet with
    // POLLOUT armed.
    for (;;) {
        const std::size_t lines = _lines.size();
        const std::size_t emitted = _emitted;
        const std::size_t flushed = _flushed;
        serveNextLine();
        advanceRequest();
        flushSome();
        if (_peer_gone || _shutdown)
            return;
        if (_lines.size() == lines && _emitted == emitted &&
            _flushed == flushed)
            return;
    }
}

void
Connection::flushSome()
{
    if (_peer_gone)
        return;
    for (std::size_t burst = 0;
         burst < kSendBurst && _out_head < _out.size(); ++burst) {
        const auto sent = sendSome(_socket.get(), _out.data() + _out_head,
                                   _out.size() - _out_head);
        if (sent.status == IoStatus::Closed) {
            dropPeer();
            return;
        }
        if (sent.status != IoStatus::Ready || sent.bytes == 0)
            break;
        _out_head += sent.bytes;
        _flushed += sent.bytes;
    }
    if (_out_head == _out.size()) {
        _out.clear();
        _out_head = 0;
    } else if (_out_head > kReadChunk) {
        _out.erase(0, _out_head);
        _out_head = 0;
    }
}

void
Connection::dropPeer()
{
    _peer_gone = true;
    _read_closed = true;
    _job.reset(); // cancels its misses (deterministic prefix)
    _lines.clear();
    _out.clear();
    _out_head = 0;
}

short
Connection::wantedEvents() const
{
    if (_peer_gone)
        return 0;
    short events = 0;
    const std::size_t outstanding = _out.size() - _out_head;
    if (!_read_closed && _lines.size() < _config.max_pending_lines &&
        outstanding <= _config.max_buffered)
        events |= POLLIN;
    if (outstanding > 0)
        events |= POLLOUT;
    return events;
}

bool
Connection::finished() const
{
    if (_peer_gone)
        return true;
    return _read_closed && !_job && _lines.empty() &&
           _out_head == _out.size();
}

bool
Connection::shutdownFlushed() const
{
    return _shutdown && (_peer_gone || _out_head == _out.size());
}

} // namespace server
} // namespace qmh
