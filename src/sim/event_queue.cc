#include "event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace qmh {
namespace sim {

std::uint64_t
EventQueue::schedule(Tick when, Handler fn, Priority prio)
{
    if (!fn)
        qmh_panic("scheduling empty handler");
    return scheduleImpl(when, EventFn(std::move(fn)), prio);
}

std::uint64_t
EventQueue::scheduleImpl(Tick when, EventFn fn, Priority prio)
{
    if (when < _now)
        qmh_panic("scheduling event in the past: when=", when,
                  " now=", _now);
    if (fn.heapAllocated())
        ++_spilled;
    Frame *frame = allocFrame();
    frame->fn = std::move(fn);
    const auto seq = _next_seq++;
    _heap.push_back({when, seq, static_cast<int>(prio), frame});
    std::push_heap(_heap.begin(), _heap.end(), Later{});
    return seq;
}

void
EventQueue::dispatchTop()
{
    std::pop_heap(_heap.begin(), _heap.end(), Later{});
    const Entry top = _heap.back();
    _heap.pop_back();
    _now = top.when;
    ++_executed;
    // The frame stays off the free list while its handler runs, so
    // events the handler schedules never reuse it.
    Frame *frame = top.frame;
    frame->fn();
    frame->fn = EventFn{};
    frame->next_free = _free;
    _free = frame;
}

bool
EventQueue::step()
{
    if (_heap.empty())
        return false;
    dispatchTop();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    while (!_heap.empty() && _heap.front().when <= limit)
        dispatchTop();
    if (_now < limit && limit != max_tick)
        _now = limit;
    return _now;
}

EventQueue::Frame *
EventQueue::allocFrame()
{
    if (_free == nullptr) {
        auto block = std::make_unique<Frame[]>(block_events);
        for (auto i = block_events; i-- > 0;) {
            block[i].next_free = _free;
            _free = &block[i];
        }
        _blocks.push_back(std::move(block));
    }
    Frame *frame = _free;
    _free = frame->next_free;
    return frame;
}

} // namespace sim
} // namespace qmh
