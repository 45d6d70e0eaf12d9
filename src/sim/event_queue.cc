#include "event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace qmh {
namespace sim {

namespace {

/// No pending event has this key (a rank never fills the top bits).
constexpr std::uint64_t no_key = ~std::uint64_t(0);

/// Stat, Default, Late -> 0, 10, 20: order-preserving and < 32.
std::uint64_t
rankOf(Priority prio)
{
    return static_cast<std::uint64_t>(static_cast<int>(prio) -
                                      static_cast<int>(Priority::Stat));
}

} // namespace

std::uint64_t
EventQueue::schedule(Tick when, Completion event, Priority prio)
{
    if (when < _now)
        qmh_panic("scheduling event in the past: when=", when,
                  " now=", _now);
    if (event.sink == nullptr)
        qmh_panic("scheduling an event without a sink");
    const auto seq = _next_seq++;
    const auto rank = rankOf(prio);
    const Entry entry{when, rank << seq_bits | seq, event.sink, event.tag};
    ++_pending;

    // The lane of this (delay, priority) pair, else an empty lane
    // rebound to it, else a lane never used, else the heap.
    const Tick delay = when - _now;
    if (delay < (Tick(1) << seq_bits)) {
        const std::uint64_t selector = delay << 5 | rank;
        for (std::size_t i = 0; i < _lanes_used; ++i) {
            if (_selector[i] == selector) {
                pushLane(i, entry);
                return seq;
            }
        }
        std::size_t lane = 0;
        while (lane < _lanes_used && _head_key[lane] != no_key)
            ++lane;
        if (lane == _lanes_used && _lanes_used < lane_count)
            ++_lanes_used;
        if (lane < _lanes_used) {
            _selector[lane] = selector;
            pushLane(lane, entry);
            return seq;
        }
    }
    _heap.push_back(entry);
    std::push_heap(_heap.begin(), _heap.end(), Later{});
    return seq;
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
        _head_key[lane] = entry.key;
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
        _head_key[lane] = no_key;
    } else {
        _head_when[lane] = l.ring[l.head].when;
        _head_key[lane] = l.ring[l.head].key;
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
EventQueue::dispatchNext(Tick limit)
{
    // The least of the heap top and the lane heads; from == lane_count
    // names the heap.
    Tick when = max_tick;
    std::uint64_t key = no_key;
    std::size_t from = lane_count;
    if (!_heap.empty()) {
        when = _heap.front().when;
        key = _heap.front().key;
    }
    for (std::size_t i = 0; i < _lanes_used; ++i) {
        if (_head_when[i] < when ||
            (_head_when[i] == when && _head_key[i] < key)) {
            when = _head_when[i];
            key = _head_key[i];
            from = i;
        }
    }
    if (key == no_key || when > limit)
        return false;

    const Entry entry = from == lane_count ? popHeap() : popLane(from);
    --_pending;
    _now = entry.when;
    ++_executed;
    entry.sink->complete(entry.tag);
    return true;
}

bool
EventQueue::step()
{
    return dispatchNext(max_tick);
}

Tick
EventQueue::run(Tick limit)
{
    while (dispatchNext(limit)) {
    }
    if (_now < limit && limit != max_tick)
        _now = limit;
    return _now;
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
