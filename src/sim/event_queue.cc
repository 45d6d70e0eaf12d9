#include "event_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace qmh {
namespace sim {

// Calendar invariants, maintained by insert()/refill()/growTo():
//
//  1. Pending events all have when >= _now, so every bucket key is
//     >= _now >> _shift and bucket keys pairwise differ by less than
//     bucket_count — each ring slot holds exactly one key.
//  2. While _active is non-empty, every bucketed or far event
//     dispatches after every active event: inserts keyed at or before
//     _active_key join the active heap directly, and a window slide
//     cannot occur until the active heap drains.
//  3. _shift only grows. An old bucket's tick range is an aligned
//     2^shift block, which always lands inside a single coarser
//     aligned block, so rebucketing preserves (2) by re-routing
//     events through insert() with the recomputed _active_key.

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
    // Keep the near window wide enough that the common case — events
    // within the current scheduling horizon — stays in the bucket
    // ring rather than churning through the far heap.
    const Tick delta = when - _now;
    if ((delta >> _shift) >= bucket_count) {
        auto s = _shift;
        while (s < max_shift && (delta >> s) >= bucket_count)
            ++s;
        growTo(s);
    }
    Event *e = allocEvent();
    e->when = when;
    e->seq = _next_seq++;
    e->prio = static_cast<int>(prio);
    e->fn = std::move(fn);
    insert(e);
    ++_size;
    return e->seq;
}

void
EventQueue::insert(Event *e)
{
    const auto key = e->when >> _shift;
    if (!_active.empty() && key <= _active_key) {
        // At or before the dispatching bucket: the active heap is the
        // only structure guaranteed to be consulted before time
        // reaches this event.
        _active.push_back(e);
        std::push_heap(_active.begin(), _active.end(), Later{});
    } else if (key - (_now >> _shift) < bucket_count) {
        pushBucket(e);
    } else {
        _far.push_back(e);
        std::push_heap(_far.begin(), _far.end(), Later{});
    }
}

void
EventQueue::pushBucket(Event *e)
{
    const auto slot = (e->when >> _shift) & bucket_mask;
    _buckets[slot].push_back(e);
    _occupied[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++_near_count;
}

void
EventQueue::growTo(std::uint32_t new_shift)
{
    _rebucket.clear();
    for (auto &bucket : _buckets) {
        _rebucket.insert(_rebucket.end(), bucket.begin(),
                         bucket.end());
        bucket.clear();
    }
    _occupied.fill(0);
    _near_count = 0;
    const auto old_shift = _shift;
    _shift = new_shift;
    if (!_active.empty())
        _active_key >>= (new_shift - old_shift);
    for (auto *e : _rebucket)
        insert(e);
}

bool
EventQueue::refillSlow()
{
    if (_size == 0)
        return false;
    for (;;) {
        // Slide the window up to the present and pull far events that
        // now fit the near horizon into their buckets.
        const auto base = _now >> _shift;
        while (!_far.empty() &&
               (_far.front()->when >> _shift) - base < bucket_count) {
            std::pop_heap(_far.begin(), _far.end(), Later{});
            Event *e = _far.back();
            _far.pop_back();
            pushBucket(e);
        }
        if (_near_count > 0)
            break;
        // Only far events remain and all sit beyond the horizon:
        // coarsen the buckets until the earliest one fits. At
        // max_shift any 64-bit tick fits, so progress is guaranteed.
        const Tick far_when = _far.front()->when;
        auto s = _shift;
        while (s < max_shift &&
               (far_when >> s) - (_now >> s) >= bucket_count)
            ++s;
        if (s == _shift)
            qmh_panic("event queue window failed to advance");
        growTo(s);
    }
    // First occupied ring slot at or after the present's, wrapping
    // once: near keys span fewer than bucket_count slots, so ring
    // order from the present's slot is key order.
    const auto base = _now >> _shift;
    const auto start = base & bucket_mask;
    auto word = start >> 6;
    auto bits = _occupied[word] & (~std::uint64_t{0} << (start & 63));
    while (bits == 0) {
        word = (word + 1) % _occupied.size();
        bits = _occupied[word];
    }
    const auto slot =
        word * 64 + static_cast<std::uint64_t>(std::countr_zero(bits));
    const auto key = base + ((slot - start) & bucket_mask);
    auto &bucket = _buckets[slot];
    _occupied[word] &= ~(std::uint64_t{1} << (slot & 63));
    _near_count -= bucket.size();
    _active.swap(bucket);
    std::make_heap(_active.begin(), _active.end(), Later{});
    _active_key = key;
    return true;
}

void
EventQueue::dispatchTop()
{
    std::pop_heap(_active.begin(), _active.end(), Later{});
    Event *e = _active.back();
    _active.pop_back();
    _now = e->when;
    ++_executed;
    --_size;
    e->fn();
    recycle(e);
}

bool
EventQueue::step()
{
    if (!refill())
        return false;
    dispatchTop();
    return true;
}

Tick
EventQueue::run(Tick limit)
{
    // One refill per dispatch: the loop condition already established
    // a non-empty active heap, so dispatch directly instead of going
    // through step()'s second refill check.
    while (refill() && _active.front()->when <= limit)
        dispatchTop();
    if (_now < limit && limit != max_tick)
        _now = limit;
    return _now;
}

EventQueue::Event *
EventQueue::allocEvent()
{
    if (_free == nullptr) {
        auto block = std::make_unique<Event[]>(block_events);
        for (auto i = block_events; i-- > 0;) {
            block[i].next_free = _free;
            _free = &block[i];
        }
        _blocks.push_back(std::move(block));
    }
    Event *e = _free;
    _free = e->next_free;
    return e;
}

void
EventQueue::recycle(Event *e)
{
    e->fn = EventFn{};
    e->next_free = _free;
    _free = e;
}

} // namespace sim
} // namespace qmh
