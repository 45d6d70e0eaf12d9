#include "event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace qmh {
namespace sim {

namespace {

/// No pending event has this seq.
constexpr std::uint64_t no_seq = ~std::uint64_t(0);

} // namespace

void
EventQueue::schedule(Tick when, Completion event)
{
    if (when < _now)
        qmh_panic("scheduling event in the past: when=", when,
                  " now=", _now);
    if (event.sink == nullptr)
        qmh_panic("scheduling an event without a sink");
    const Entry entry{when, _next_seq++, event.sink, event.tag};

    // The lane of this delay, else an empty lane rebound to it, else
    // a lane never used, else the heap.
    const Tick delay = when - _now;
    for (std::size_t i = 0; i < _lanes_used; ++i) {
        if (_delay[i] == delay) {
            pushLane(i, entry);
            return;
        }
    }
    std::size_t lane = 0;
    while (lane < _lanes_used && _head_seq[lane] != no_seq)
        ++lane;
    if (lane == _lanes_used && _lanes_used < lane_count)
        ++_lanes_used;
    if (lane < _lanes_used) {
        _delay[lane] = delay;
        pushLane(lane, entry);
        return;
    }
    _heap.push_back(entry);
    std::push_heap(_heap.begin(), _heap.end(), Later{});
}

void
EventQueue::pushLane(std::size_t lane, const Entry &entry)
{
    Lane &l = _lanes[lane];
    if (l.count == l.ring.size()) {
        // Full: unwrap into a ring twice the size.
        std::vector<Entry> grown(std::max<std::size_t>(8, 2 * l.count));
        for (std::size_t i = 0; i < l.count; ++i)
            grown[i] = l.ring[(l.head + i) & (l.ring.size() - 1)];
        l.ring.swap(grown);
        l.head = 0;
    }
    l.ring[(l.head + l.count) & (l.ring.size() - 1)] = entry;
    if (l.count++ == 0) {
        _head_when[lane] = entry.when;
        _head_seq[lane] = entry.seq;
    }
}

EventQueue::Entry
EventQueue::popLane(std::size_t lane)
{
    Lane &l = _lanes[lane];
    const Entry entry = l.ring[l.head];
    l.head = (l.head + 1) & (l.ring.size() - 1);
    if (--l.count == 0) {
        _head_when[lane] = max_tick;
        _head_seq[lane] = no_seq;
    } else {
        _head_when[lane] = l.ring[l.head].when;
        _head_seq[lane] = l.ring[l.head].seq;
    }
    return entry;
}

EventQueue::Entry
EventQueue::popHeap()
{
    std::pop_heap(_heap.begin(), _heap.end(), Later{});
    const Entry entry = _heap.back();
    _heap.pop_back();
    return entry;
}

bool
EventQueue::dispatchNext()
{
    // The least of the heap top and the lane heads; from == lane_count
    // names the heap.
    Tick when = max_tick;
    std::uint64_t seq = no_seq;
    std::size_t from = lane_count;
    if (!_heap.empty()) {
        when = _heap.front().when;
        seq = _heap.front().seq;
    }
    for (std::size_t i = 0; i < _lanes_used; ++i) {
        if (_head_when[i] < when ||
            (_head_when[i] == when && _head_seq[i] < seq)) {
            when = _head_when[i];
            seq = _head_seq[i];
            from = i;
        }
    }
    if (seq == no_seq)
        return false;

    const Entry entry = from == lane_count ? popHeap() : popLane(from);
    _now = entry.when;
    ++_executed;
    entry.sink->complete(entry.tag);
    return true;
}

void
EventQueue::run()
{
    while (dispatchNext()) {
    }
}

std::size_t
EventQueue::capacity() const
{
    std::size_t total = _heap.capacity();
    for (const auto &lane : _lanes)
        total += lane.ring.size();
    return total;
}

} // namespace sim
} // namespace qmh
