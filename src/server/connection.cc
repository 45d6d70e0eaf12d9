#include "connection.hh"

#include <unordered_map>
#include <utility>

#include <poll.h>

#include "opt/result_cache.hh"

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

} // namespace

Connection::Connection(Fd socket, api::Session &session,
                       EventLoop &loop, opt::ResultCache *cache,
                       ConnectionConfig config)
    : _socket(std::move(socket)), _session(session), _loop(loop),
      _cache(cache), _config(config), _splitter(config.max_line)
{
}

Connection::~Connection()
{
    if (_active && _active->job)
        _active->job->cancel();
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
    if (_active || _lines.empty() || _shutdown)
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
    if (line.text.find_first_not_of(" \t\r") == std::string::npos)
        return;

    const auto parsed = json::parse(line.text);
    if (!parsed.ok()) {
        emit(api::recordError(
            "", badRequest("malformed JSON at byte " +
                           std::to_string(parsed.offset) + ": " +
                           parsed.error)));
        ++_stats.errors;
        return;
    }
    auto request = api::decodeServiceRequest(parsed.value);
    if (!request.ok()) {
        std::string id;
        if (const auto *found = parsed.value.find("id");
            found && found->isString())
            id = found->string();
        emit(api::recordError(id, request.error()));
        ++_stats.errors;
        return;
    }
    ++_stats.requests;
    if (request.value().op == api::ServiceOp::Shutdown) {
        emit(api::recordDone(request.value().id, 0, 0, false));
        _shutdown = true;
        _read_closed = true;
        _lines.clear();
        return;
    }
    startRequest(std::move(request).value());
}

void
Connection::startRequest(api::ServiceRequest request)
{
    auto validated = api::validateExperiments(request.specs);
    if (!validated.ok()) {
        emit(api::recordError(request.id, validated.error()));
        ++_stats.errors;
        return;
    }
    auto experiments = std::move(validated).value();

    Active active;
    if (experiments.empty()) {
        active.columns = {"spec", "seed"};
    } else {
        active.columns = experiments.front()->columns();
        active.columns.emplace_back("seed");
    }

    const std::uint64_t base =
        request.seed.value_or(_session.baseSeed());
    const bool spec_seeded =
        request.seed_mode == api::SeedMode::Spec;
    active.use_cache =
        spec_seeded && _cache && base == _cache->baseSeed();

    std::vector<std::unique_ptr<api::Experiment>> misses;
    std::vector<std::uint64_t> miss_seeds;
    if (spec_seeded) {
        // Spec-addressed points: resolvable from the cache, and equal
        // specs share one stream — simulate each distinct miss once.
        std::unordered_map<std::string, std::size_t> first_slot;
        for (std::size_t i = 0; i < experiments.size(); ++i) {
            Slot slot;
            active.keys.push_back(api::printSpec(request.specs[i]));
            const auto &key = active.keys.back();
            active.seeds.push_back(opt::specSeed(base, key));
            std::optional<opt::CachedResult> hit;
            if (active.use_cache)
                hit = _cache->lookup(key);
            if (hit) {
                slot.kind = Slot::Kind::Cached;
                slot.row = std::move(hit->row);
                slot.row.emplace_back(hit->seed);
                slot.resolved = true;
            } else if (const auto seen = first_slot.find(key);
                       seen != first_slot.end()) {
                slot.kind = Slot::Kind::Dup;
                slot.dup_of = seen->second;
            } else {
                first_slot.emplace(key, i);
                slot.kind = Slot::Kind::Job;
                slot.job_ordinal = misses.size();
                misses.push_back(std::move(experiments[i]));
                miss_seeds.push_back(active.seeds.back());
                active.job_slots.push_back(i);
            }
            active.slots.push_back(std::move(slot));
        }
    } else {
        // Index-addressed points: position-dependent streams, so no
        // cache and no dedup — exactly the stdio submit.
        for (std::size_t i = 0; i < experiments.size(); ++i) {
            Slot slot;
            slot.kind = Slot::Kind::Job;
            slot.job_ordinal = i;
            active.job_slots.push_back(i);
            active.slots.push_back(std::move(slot));
        }
        misses = std::move(experiments);
    }

    emit(api::recordAccepted(request.id, active.slots.size(),
                             active.columns));
    active.request = std::move(request);
    _active = std::move(active);

    // Put the leading resolved rows (cache hits and their dups) on
    // the wire before the misses wake a worker, so the first row never
    // waits behind simulation work that shares this CPU. Emission
    // stops at the first miss; a limit the leading rows already meet
    // finishes the request with nothing to simulate.
    advanceActive();
    flushSome();
    if (!_active || misses.empty())
        return;

    api::SubmitOptions options;
    options.base_seed = _active->request.seed;
    options.seeds = std::move(miss_seeds);
    EventLoop *loop = &_loop;
    options.on_retire = [loop]() { loop->wakeup(); };
    auto submitted =
        _session.submit(std::move(misses), std::move(options));
    if (!submitted.ok()) {
        emit(api::recordError(_active->request.id, submitted.error()));
        ++_stats.errors;
        finalizeActive(true);
        return;
    }
    _active->job = std::move(submitted).value();
}

void
Connection::harvestJobRows()
{
    auto &active = *_active;
    if (!active.job)
        return;
    std::vector<sweep::Cell> row;
    while (active.harvested < active.job_slots.size() &&
           active.job->pollRow(row) == api::RowPoll::Ready) {
        const std::size_t slot_index =
            active.job_slots[active.harvested++];
        auto &slot = active.slots[slot_index];
        if (active.use_cache && !row.empty()) {
            // Cache the engine columns; the seed cell is appended at
            // emission, exactly as opt::runSpecSweepCached replays.
            std::vector<sweep::Cell> engine(row.begin(),
                                            row.end() - 1);
            _cache->insert(active.keys[slot_index],
                           active.seeds[slot_index],
                           std::move(engine));
        }
        slot.row = std::move(row);
        slot.resolved = true;
        row = {};
    }
}

void
Connection::advanceActive()
{
    if (!_active)
        return;
    harvestJobRows();
    auto &active = *_active;
    const std::size_t limit = active.request.limit;
    for (;;) {
        if (_out.size() - _out_head > _config.max_buffered)
            return; // backpressure: resume once the reader drains

        if (limit != 0 && active.streamed >= limit) {
            // The stdio path: cancel cooperatively, wait for the
            // tail to retire, report no tail failure (those rows
            // were never requested).
            if (active.job) {
                if (!active.limit_cancelled) {
                    active.job->cancel();
                    active.limit_cancelled = true;
                }
                if (!active.job->progress().finished)
                    return; // retirement wakeups finish this
            }
            finalizeActive(false);
            return;
        }

        if (active.next_emit == active.slots.size()) {
            if (active.job && !active.job->progress().finished)
                return;
            finalizeActive(true);
            return;
        }

        auto &slot = active.slots[active.next_emit];
        if (slot.kind == Slot::Kind::Dup && !slot.resolved) {
            const auto &source = active.slots[slot.dup_of];
            if (source.resolved) {
                slot.row = source.row;
                slot.resolved = true;
            }
        }
        if (slot.resolved) {
            emitRow(slot.row);
            ++active.next_emit;
            ++active.streamed;
            continue;
        }
        // The next slot needs a job row that has not landed. If the
        // job can still produce it, wait; if the job is over, the
        // stream ended early (a failed or skipped point) — stdio
        // prefix semantics end the row stream right here. A worker
        // may have retired the last rows between the harvest above
        // and this check, so harvest once more after seeing the job
        // finished: only a slot still unresolved then ends the stream.
        if (active.job && active.job->progress().finished) {
            const std::size_t harvested = active.harvested;
            harvestJobRows();
            if (active.harvested != harvested)
                continue;
            finalizeActive(true);
            return;
        }
        return;
    }
}

void
Connection::finalizeActive(bool stream_ended)
{
    auto &active = *_active;
    if (active.job) {
        const auto result = active.job->wait();
        _stats.simulated += result.executed;
        if (stream_ended && result.failure) {
            emit(api::recordError(active.request.id,
                                  *result.failure));
            ++_stats.errors;
        }
    }
    const bool truncated = active.streamed < active.slots.size();
    emit(api::recordDone(active.request.id, active.streamed,
                         active.slots.size(), truncated));
    _stats.rows += active.streamed;
    _active.reset();
}

void
Connection::emitRow(const std::vector<sweep::Cell> &row)
{
    emit(api::recordRow(_active->request.id, _active->streamed,
                        _active->columns, row));
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
        advanceActive();
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
    if (_active && _active->job)
        _active->job->cancel(); // deterministic-prefix cancellation
    _active.reset();
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
    return _read_closed && !_active && _lines.empty() &&
           _out_head == _out.size();
}

bool
Connection::shutdownFlushed() const
{
    return _shutdown && (_peer_gone || _out_head == _out.size());
}

} // namespace server
} // namespace qmh
