#include "cached_job.hh"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/logging.hh"

namespace qmh {
namespace opt {

CachedJob::CachedJob(
    std::vector<std::unique_ptr<api::Experiment>> experiments,
    api::SeedMode mode, std::uint64_t base_seed, ResultCache *cache,
    std::size_t limit)
    : _experiments(std::move(experiments)),
      _points(_experiments.size()),
      _cache(mode == api::SeedMode::Spec && cache &&
                     cache->baseSeed() == base_seed
                 ? cache
                 : nullptr),
      _end(limit ? std::min(limit, _points.size()) : _points.size())
{
    if (_experiments.empty()) {
        _columns = {"spec", "seed"};
    } else {
        _columns = _experiments.front()->columns();
        _columns.emplace_back("seed");
    }

    // Keys view into _points, which is sized once above.
    std::unordered_map<std::string_view, std::size_t> first_miss;
    for (std::size_t i = 0; i < _points.size(); ++i) {
        auto &point = _points[i];
        if (mode == api::SeedMode::Index) {
            point.seed = sweep::pointSeed(base_seed, i);
            continue;
        }
        point.key = api::printSpec(_experiments[i]->spec());
        point.seed = specSeed(base_seed, point.key);
        if (auto hit = _cache ? _cache->lookup(point.key)
                              : std::nullopt) {
            // A width or seed mismatch means the entry predates a
            // schema or seeding change: re-simulate rather than replay
            // a row a cold run could not reproduce.
            if (hit->row.size() + 1 == _columns.size() &&
                hit->seed == point.seed) {
                point.source = Source::Hit;
                point.row = std::move(hit->row);
                point.row.emplace_back(point.seed);
                continue;
            }
            point.stale = true;
        }
        if (const auto [it, fresh] = first_miss.emplace(point.key, i);
            !fresh) {
            point.source = Source::Repeat;
            point.first = it->second;
            _points[it->second].shared = true;
        }
    }
}

CachedJob::~CachedJob()
{
    if (_job)
        _job->cancel();
}

void
CachedJob::start(api::Session &session, std::function<void()> on_retire)
{
    if (_started)
        return;
    _started = true;
    std::vector<std::unique_ptr<api::Experiment>> misses;
    api::SubmitOptions options;
    for (std::size_t i = 0; i < _end; ++i) {
        if (_points[i].source == Source::Miss) {
            misses.push_back(std::move(_experiments[i]));
            options.seeds.push_back(_points[i].seed);
        }
    }
    if (!misses.empty()) {
        options.on_retire = std::move(on_retire);
        auto submitted =
            session.submit(std::move(misses), std::move(options));
        if (submitted.ok())
            _job = std::move(submitted).value();
        else
            _failure = submitted.error();
    }
    // Freed only now, so that reading the leading resolved rows does
    // not wait for it.
    _experiments.clear();
}

api::RowPoll
CachedJob::poll(std::vector<sweep::Cell> &row)
{
    return take(row, false);
}

std::optional<std::vector<sweep::Cell>>
CachedJob::next()
{
    std::vector<sweep::Cell> row;
    if (take(row, true) == api::RowPoll::Ready)
        return row;
    return std::nullopt;
}

void
CachedJob::cancel()
{
    _cancelled = true;
    if (_job)
        _job->cancel();
}

api::RowPoll
CachedJob::take(std::vector<sweep::Cell> &row, bool block)
{
    if (_next == _end || _cancelled || _ended)
        return retire(block) ? api::RowPoll::End
                             : api::RowPoll::Pending;

    auto &point = _points[_next];
    if (point.source == Source::Hit) {
        // Swapped, not moved into: the caller's previous row is then
        // freed with the job rather than here, between two rows. On
        // the serve_mixed benchmark, freeing hit rows one by one made
        // the next request's store lookups measurably slower.
        row.swap(point.row);
        ++_replayed;
    } else if (point.source == Source::Repeat) {
        row = _points[point.first].row;
        ++_replayed;
    } else {
        if (!_job) {
            if (_started) {
                // Every miss before _end was submitted, so only a
                // refused submission leaves one without a job.
                _ended = true;
                return api::RowPoll::End;
            }
            if (block)
                qmh_panic("CachedJob::next: start() was not called");
            return api::RowPoll::Pending;
        }
        api::RowPoll got;
        if (block) {
            auto streamed = _job->nextRow();
            got = streamed ? api::RowPoll::Ready : api::RowPoll::End;
            if (streamed)
                row = std::move(*streamed);
        } else {
            got = _job->pollRow(row);
        }
        if (got == api::RowPoll::Pending)
            return got;
        if (got == api::RowPoll::End) {
            // The job retired without this row: a point failed (or
            // the session was torn down). The stream ends here.
            _ended = true;
            return retire(block) ? api::RowPoll::End
                                 : api::RowPoll::Pending;
        }
        if (_cache) {
            // The store holds bare engine rows; the seed cell is
            // appended again on replay.
            const std::span<const sweep::Cell> bare(row.data(),
                                                    row.size() - 1);
            if (point.stale)
                _cache->upsert(point.key, point.seed, bare);
            else
                _cache->insert(point.key, point.seed, bare);
        }
        if (point.shared)
            point.row = row;
    }
    ++_next;
    return api::RowPoll::Ready;
}

bool
CachedJob::retire(bool block)
{
    if (!_job || _retired)
        return true;
    _job->cancel(); // no-op once every submitted point has run
    if (!block && !_job->progress().finished)
        return false;
    settle();
    return true;
}

void
CachedJob::settle()
{
    const auto result = _job->waitCounts();
    _simulated = result.executed;
    _failure = result.failure;
    _retired = true;
}

CachedJobResult
CachedJob::wait()
{
    if (_job && !_retired)
        settle();
    CachedJobResult result;
    result.rows = _next;
    result.replayed = _replayed;
    result.simulated = _simulated;
    if (_ended)
        result.failure = _failure;
    return result;
}

} // namespace opt
} // namespace qmh
