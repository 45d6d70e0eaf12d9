#include "scheduler.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/units.hh"

namespace qmh {
namespace sched {

namespace {

/** Completion-queue entry ordered by finish time. */
struct FinishEntry
{
    std::uint64_t finish;
    std::uint32_t index;
    std::uint32_t block;

    bool
    operator>(const FinishEntry &other) const
    {
        if (finish != other.finish)
            return finish > other.finish;
        return index > other.index;
    }
};

} // namespace

std::vector<ProfileSegment>
buildProfileSegments(const std::vector<std::uint64_t> &start,
                     const std::vector<std::uint64_t> &duration,
                     std::uint64_t span)
{
    if (start.size() != duration.size())
        qmh_panic("buildProfileSegments: ", start.size(),
                  " starts vs ", duration.size(), " durations");
    // Delta counting over the *distinct event times* only — never a
    // slot per time step, so tick-resolution traces with makespans in
    // the billions stay O(gates log gates).
    std::vector<std::pair<std::uint64_t, std::int32_t>> events;
    events.reserve(2 * start.size());
    for (std::size_t i = 0; i < start.size(); ++i) {
        if (duration[i] == 0)
            continue;  // barriers occupy no block time
        events.emplace_back(start[i], 1);
        events.emplace_back(start[i] + duration[i], -1);
    }
    std::sort(events.begin(), events.end());

    std::vector<ProfileSegment> segments;
    const auto emit = [&segments](std::uint64_t begin,
                                  std::uint64_t end,
                                  std::uint32_t in_flight) {
        // Maximal runs: extend the previous segment when the value
        // did not actually change at the boundary.
        if (!segments.empty() &&
            segments.back().in_flight == in_flight)
            segments.back().end = end;
        else
            segments.push_back({begin, end, in_flight});
    };
    std::uint64_t cursor = 0;
    std::int64_t current = 0;
    std::size_t e = 0;
    while (e < events.size()) {
        const auto when = events[e].first;
        if (when > cursor)
            emit(cursor, when, static_cast<std::uint32_t>(current));
        while (e < events.size() && events[e].first == when)
            current += events[e++].second;
        cursor = when;
    }
    if (current != 0)
        qmh_panic("buildProfileSegments: unbalanced profile (", current,
                  " gates never finish)");
    if (cursor < span)
        emit(cursor, span, 0);
    return segments;
}

std::vector<ProfileSegment>
ScheduleResult::inFlightSegments() const
{
    std::vector<std::uint64_t> duration(_latency.begin(), _latency.end());
    return buildProfileSegments(start, duration, makespan);
}

std::vector<std::uint32_t>
ScheduleResult::inFlightProfile() const
{
    std::vector<std::uint32_t> profile(makespan, 0);
    for (const auto &segment : inFlightSegments())
        for (std::uint64_t t = segment.begin;
             t < std::min(segment.end, makespan); ++t)
            profile[t] = segment.in_flight;
    return profile;
}

std::vector<double>
ScheduleResult::windowedProfile(std::uint64_t window) const
{
    if (window == 0)
        qmh_panic("windowedProfile: zero window");
    if (makespan == 0)
        return {};
    const auto windows =
        static_cast<std::size_t>((makespan + window - 1) / window);
    std::vector<double> sums(windows, 0.0);
    for (const auto &segment : inFlightSegments()) {
        if (segment.in_flight == 0 || segment.begin >= makespan)
            continue;
        const auto end = std::min(segment.end, makespan);
        for (auto w = segment.begin / window; w * window < end; ++w) {
            const auto lo = std::max(segment.begin, w * window);
            const auto hi = std::min(end, (w + 1) * window);
            sums[w] += static_cast<double>(segment.in_flight) *
                       static_cast<double>(hi - lo);
        }
    }
    std::vector<double> out(windows, 0.0);
    for (std::size_t w = 0; w < windows; ++w) {
        const auto base = static_cast<std::uint64_t>(w) * window;
        const auto width = std::min(window, makespan - base);
        out[w] = sums[w] / static_cast<double>(width);
    }
    return out;
}

std::uint32_t
ScheduleResult::peakParallelism() const
{
    std::uint32_t peak = 0;
    for (const auto &segment : inFlightSegments())
        peak = std::max(peak, segment.in_flight);
    return peak;
}

double
ScheduleResult::utilization() const
{
    const unsigned blocks =
        blocks_requested == unlimited_blocks ? blocks_used
                                             : blocks_requested;
    return units::busyFraction(busy_block_steps, makespan, blocks);
}

SchedulePlan::SchedulePlan(const circuit::Program &program,
                           const circuit::DependencyGraph &dag,
                           const LatencyModel &latency)
    : _model(latency)
{
    const auto &insts = program.instructions();
    _total = static_cast<std::uint32_t>(insts.size());
    _latency.resize(_total);
    for (std::uint32_t i = 0; i < _total; ++i) {
        _latency[i] = latency.steps(insts[i].kind);
        _busy_block_steps += _latency[i];
    }

    _succ_offset = dag.succOffsets();
    _succ = dag.succEdges();

    // Critical-path priority: longest weighted path to any sink.
    std::vector<std::uint64_t> priority(_total, 0);
    for (std::uint32_t i = _total; i-- > 0;) {
        std::uint64_t best = 0;
        for (auto e = _succ_offset[i]; e < _succ_offset[i + 1]; ++e)
            best = std::max(best, priority[_succ[e]]);
        priority[i] = best + _latency[i];
    }

    // The ready-set key only needs a monotone priority-descending
    // rank, not a dense one. Every priority is bounded by the total
    // busy steps, so when that fits 32 bits (any program the spec
    // layer admits) the bitwise complement is the rank directly —
    // no sort, no per-instruction binary search. The sort-based
    // dense compression remains as the arbitrary-latency fallback.
    _rank.resize(_total);
    if (_busy_block_steps <= 0xffffffffull) {
        for (std::uint32_t i = 0; i < _total; ++i)
            _rank[i] = ~static_cast<std::uint32_t>(priority[i]);
    } else {
        std::vector<std::uint64_t> distinct(priority);
        std::sort(distinct.begin(), distinct.end(), std::greater<>{});
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        for (std::uint32_t i = 0; i < _total; ++i)
            _rank[i] = static_cast<std::uint32_t>(
                std::lower_bound(distinct.begin(), distinct.end(),
                                 priority[i], std::greater<>{}) -
                distinct.begin());
    }

    // Ready-set keys pop in the strict (rank, index) order, so the
    // pop sequence is the same however the heap was built.
    _in_degree.resize(_total);
    for (std::uint32_t i = 0; i < _total; ++i) {
        _in_degree[i] = dag.inDegree(i);
        if (_in_degree[i] == 0)
            _sources.push_back(
                (static_cast<std::uint64_t>(_rank[i]) << 32) | i);
    }
    std::make_heap(_sources.begin(), _sources.end(), std::greater<>{});
}

IncrementalScheduler::IncrementalScheduler(const SchedulePlan &plan,
                                           unsigned blocks)
    : _plan(plan), _blocks(blocks), _capped(blocks != unlimited_blocks),
      _remaining(plan._in_degree), _ready(plan._sources)
{
    if (_capped) {
        _free_words.assign((blocks + 63) / 64, 0);
        for (std::uint32_t b = 0; b < blocks; ++b)
            _free_words[b >> 6] |= std::uint64_t{1} << (b & 63);
        _free_count = blocks;
    }
}

void
IncrementalScheduler::pushReady(std::uint32_t index)
{
    _ready.push_back(
        (static_cast<std::uint64_t>(_plan._rank[index]) << 32) | index);
    std::push_heap(_ready.begin(), _ready.end(), std::greater<>{});
}

std::uint32_t
IncrementalScheduler::popReady()
{
    std::pop_heap(_ready.begin(), _ready.end(), std::greater<>{});
    const auto index =
        static_cast<std::uint32_t>(_ready.back() & 0xffffffffu);
    _ready.pop_back();
    return index;
}

std::uint32_t
IncrementalScheduler::allocBlock()
{
    while (_first_free_word < _free_words.size() &&
           _free_words[_first_free_word] == 0)
        ++_first_free_word;
    if (_first_free_word < _free_words.size()) {
        auto &word = _free_words[_first_free_word];
        const auto bit =
            static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        --_free_count;
        return static_cast<std::uint32_t>(_first_free_word * 64) + bit;
    }
    return _next_fresh_block++;
}

void
IncrementalScheduler::freeBlock(std::uint32_t block)
{
    const std::size_t word = block >> 6;
    if (word >= _free_words.size())
        _free_words.resize(word + 1, 0);
    _free_words[word] |= std::uint64_t{1} << (block & 63);
    _first_free_word = std::min(_first_free_word, word);
    ++_free_count;
}

std::optional<IssueClaim>
IncrementalScheduler::claim()
{
    if (_ready.empty())
        return std::nullopt;
    if (_capped && _free_count == 0)
        return std::nullopt;
    const auto index = popReady();
    ++_claimed;
    ++_in_flight;
    _peak_in_flight = std::max(_peak_in_flight, _in_flight);
    return IssueClaim{index, allocBlock(), _plan._latency[index]};
}

std::uint32_t
IncrementalScheduler::claimBatch(std::vector<IssueClaim> &out)
{
    std::uint32_t issued = 0;
    while (!_ready.empty() && !(_capped && _free_count == 0)) {
        const auto index = popReady();
        ++_claimed;
        ++_in_flight;
        _peak_in_flight = std::max(_peak_in_flight, _in_flight);
        out.push_back(IssueClaim{index, allocBlock(),
                                 _plan._latency[index]});
        ++issued;
    }
    return issued;
}

void
IncrementalScheduler::complete(const IssueClaim &done)
{
    if (_in_flight == 0)
        qmh_panic("IncrementalScheduler: complete() with nothing in "
                  "flight");
    --_in_flight;
    ++_completed;
    freeBlock(done.block);
    const auto &offset = _plan._succ_offset;
    for (auto e = offset[done.index]; e < offset[done.index + 1]; ++e) {
        const auto s = _plan._succ[e];
        if (--_remaining[s] == 0)
            pushReady(s);
    }
}

unsigned
IncrementalScheduler::blocksUsed() const
{
    return _capped ? _blocks
                   : std::max<unsigned>(_peak_in_flight,
                                        _next_fresh_block);
}

ScheduleResult
listSchedule(const circuit::Program &program,
             const circuit::DependencyGraph &dag,
             const LatencyModel &latency, unsigned blocks)
{
    return listSchedule(SchedulePlan(program, dag, latency), blocks);
}

ScheduleResult
listSchedule(const SchedulePlan &plan, unsigned blocks)
{
    const auto m = plan.size();

    ScheduleResult result;
    result.blocks_requested = blocks;
    result.start.assign(m, 0);
    result.block.assign(m, 0);
    IncrementalScheduler scheduler(plan, blocks);
    result._latency.resize(m);
    for (std::uint32_t i = 0; i < m; ++i)
        result._latency[i] = plan.latencyOf(i);
    result.busy_block_steps = plan.busyBlockSteps();
    if (m == 0)
        return result;

    std::priority_queue<FinishEntry, std::vector<FinishEntry>,
                        std::greater<>> running;
    std::uint64_t now = 0;
    std::vector<IssueClaim> front;

    while (!scheduler.finished()) {
        // Issue every ready gate a free block can take.
        front.clear();
        scheduler.claimBatch(front);
        for (const auto &claimed : front) {
            result.start[claimed.index] = now;
            result.block[claimed.index] = claimed.block;
            running.push({now + claimed.latency, claimed.index,
                          claimed.block});
        }

        if (running.empty()) {
            qmh_panic("scheduler deadlock: ",
                      scheduler.totalCount() - scheduler.claimedCount(),
                      " gates unscheduled (cyclic DAG?)");
        }

        // Advance to the next completion time and retire everything
        // finishing then.
        now = running.top().finish;
        while (!running.empty() && running.top().finish == now) {
            const auto done = running.top();
            running.pop();
            scheduler.complete(
                {done.index, done.block,
                 scheduler.latencyOf(done.index)});
        }
    }

    result.makespan = now;
    result.blocks_used = scheduler.blocksUsed();
    return result;
}

ScheduleResult
listSchedule(const circuit::Program &program, const LatencyModel &latency,
             unsigned blocks)
{
    circuit::DependencyGraph dag(program);
    return listSchedule(program, dag, latency, blocks);
}

ScheduleResult
roundSchedule(const circuit::Program &program, const LatencyModel &latency,
              unsigned blocks)
{
    const auto &insts = program.instructions();
    const auto m = static_cast<std::uint32_t>(insts.size());

    ScheduleResult result;
    result.blocks_requested = blocks;
    result.start.assign(m, 0);
    result.block.assign(m, 0);
    result._latency.resize(m);
    for (std::uint32_t i = 0; i < m; ++i) {
        result._latency[i] = latency.steps(insts[i].kind);
        result.busy_block_steps += result._latency[i];
    }
    if (m == 0)
        return result;

    // Program-order round formation: an instruction joins the open
    // round unless one of its qubits was already touched in it (the
    // static compiler issues the algorithm's structural rounds as
    // written; it does not reorder across phases the way ASAP
    // levelling would).
    std::vector<std::vector<std::uint32_t>> rounds;
    {
        std::vector<std::int64_t> qubit_round(
            static_cast<std::size_t>(program.qubitCount()), -1);
        std::int64_t current = -1;
        for (std::uint32_t i = 0; i < m; ++i) {
            // An explicit barrier always opens a fresh round;
            // subsequent instructions fall into that round.
            bool conflict = current < 0 ||
                            insts[i].kind == circuit::GateKind::Barrier;
            for (const auto &q : insts[i].operands())
                conflict |= qubit_round[q.value()] == current;
            if (conflict) {
                ++current;
                rounds.emplace_back();
            }
            rounds.back().push_back(i);
            for (const auto &q : insts[i].operands())
                qubit_round[q.value()] = current;
        }
    }

    const bool capped = blocks != unlimited_blocks;
    std::uint64_t now = 0;
    unsigned widest_round = 0;

    for (const auto &round : rounds) {
        // The round's slot latency is its slowest gate (every gate is
        // followed by error correction before the barrier lifts).
        std::uint32_t slot = 0;
        for (const auto i : round)
            slot = std::max(slot, result._latency[i]);

        // Zero-latency instructions (barriers) pin to the round start
        // and do not consume block slots.
        unsigned count = 0;
        for (const auto i : round)
            count += result._latency[i] > 0 ? 1 : 0;
        widest_round = std::max(widest_round, count);
        const unsigned per_batch =
            capped ? blocks : std::max(1u, count);
        unsigned in_batch = 0;
        std::uint64_t batch_start = now;
        for (const auto i : round) {
            if (result._latency[i] == 0) {
                result.start[i] = now;
                result.block[i] = 0;
                continue;
            }
            if (in_batch == per_batch) {
                in_batch = 0;
                batch_start += slot;
            }
            result.start[i] = batch_start;
            result.block[i] = in_batch;
            ++in_batch;
        }
        const auto batches =
            std::max<unsigned>(1, (count + per_batch - 1) /
                                      std::max(1u, per_batch));
        now += count == 0 ? 0
                          : static_cast<std::uint64_t>(batches) * slot;
    }

    result.makespan = now;
    result.blocks_used = capped ? blocks : widest_round;
    return result;
}

} // namespace sched
} // namespace qmh
