#include "port.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace qmh {
namespace sim {

// ---------------------------------------------------------------------------
// TokenPool
// ---------------------------------------------------------------------------

TokenPool::TokenPool(unsigned capacity) : _capacity(capacity)
{
    if (capacity == 0)
        qmh_fatal("token pool must have nonzero capacity");
}

bool
TokenPool::tryAcquire()
{
    if (_in_use >= _capacity)
        return false;
    ++_in_use;
    return true;
}

void
TokenPool::release()
{
    if (_in_use == 0)
        qmh_panic("token pool: release without acquire");
    --_in_use;
    // Wake parked ports in parking order until one actually takes the
    // token (a parked port may have drained its queue meanwhile). A
    // woken port may park again, appending behind the rest.
    while (_next_waiter < _waiters.size() && _in_use < _capacity) {
        Port *next = _waiters[_next_waiter++];
        next->_parked = false;
        next->pump();
    }
    // Drop the woken prefix once it is at least half the vector, so
    // each parking is moved at most once on average.
    if (_next_waiter > 0 && 2 * _next_waiter >= _waiters.size()) {
        _waiters.erase(_waiters.begin(),
                       _waiters.begin() +
                           static_cast<std::ptrdiff_t>(_next_waiter));
        _next_waiter = 0;
    }
}

void
TokenPool::enlist(Port &port)
{
    if (port._parked)
        return;
    port._parked = true;
    _waiters.push_back(&port);
}

// ---------------------------------------------------------------------------
// Port
// ---------------------------------------------------------------------------

Port::Port(EventQueue &eq, std::string name, unsigned width,
           std::size_t buffer_limit, TokenPool *tokens)
    : _eq(eq), _name(std::move(name)), _width(width),
      _buffer_limit(buffer_limit), _tokens(tokens)
{
    if (width == 0)
        qmh_fatal("port '", _name, "' must have nonzero width");
    if (buffer_limit == 0)
        qmh_fatal("port '", _name, "' must have a nonzero buffer limit");
}

void
Port::submit(Tick service, Completion done)
{
    ++_stats.requests;

    // Uncontended fast path: nothing queued, a service slot free and
    // a token in hand — start immediately without the buffer
    // round-trip. Observably identical to queue-then-pump: the
    // request would be popped right back in the same call, with zero
    // wait and zero queue occupancy either way.
    if (_count == 0 && _in_service < _width &&
        (_tokens == nullptr || _tokens->tryAcquire())) {
        start(service, done);
        return;
    }

    noteQueueChange();
    // Bounded buffer full: the request waits at the requester's side
    // of the port and is admitted FIFO when a slot frees.
    if (_count >= _buffer_limit)
        ++_stats.buffer_overflows;
    pushBack({service, _eq.now(), done});
    startQueued();
    // Peak is measured after the pump so an uncontended request that
    // went straight into service never counts as queue occupancy.
    _stats.peak_queue = std::max(_stats.peak_queue, queued());
}

void
Port::startQueued()
{
    while (_in_service < _width && _count > 0) {
        if (_tokens && !_tokens->tryAcquire()) {
            _tokens->enlist(*this);
            return;
        }
        startFront();
    }
}

void
Port::startFront()
{
    noteQueueChange();
    // Popping the front frees a buffer slot, which the longest-waiting
    // overflow request (the next ring entry) takes implicitly.
    const Request request = _ring[_head];
    _head = (_head + 1) & (_ring.size() - 1);
    --_count;

    const Tick waited = _eq.now() - request.submitted;
    if (waited > 0) {
        ++_stats.conflict_stalls;
        _stats.stall_ticks += waited;
    }
    start(request.service, request.done);
}

void
Port::start(Tick service, Completion done)
{
    ++_in_service;
    _stats.peak_in_service = std::max(_stats.peak_in_service, _in_service);
    _stats.busy_ticks += service;
    const auto slot = static_cast<std::uint32_t>(
        _free_slots.empty() ? _slots.size() : _free_slots.back());
    if (slot == _slots.size()) {
        _slots.push_back(done);
    } else {
        _free_slots.pop_back();
        _slots[slot] = done;
    }
    _eq.scheduleAfter(service, {this, slot});
}

void
Port::pushBack(const Request &request)
{
    if (_count == _ring.size()) {
        // Full: unwrap into a ring twice the size.
        std::vector<Request> grown(std::max<std::size_t>(8,
                                                         2 * _count));
        for (std::size_t i = 0; i < _count; ++i)
            grown[i] = _ring[(_head + i) & (_ring.size() - 1)];
        _ring.swap(grown);
        _head = 0;
    }
    _ring[(_head + _count) & (_ring.size() - 1)] = request;
    ++_count;
}

void
Port::complete(std::uint64_t tag)
{
    if (_in_service == 0)
        qmh_panic("port '", _name,
                  "': completion without a request in service");
    const auto slot = static_cast<std::uint32_t>(tag);
    const Completion done = _slots[slot];
    _free_slots.push_back(slot);
    --_in_service;
    ++_stats.served;
    if (_tokens)
        _tokens->release();
    if (done.sink)
        done.sink->complete(done.tag);
    pump();
}

void
Port::noteQueueChange()
{
    const Tick now = _eq.now();
    _stats.queue_integral += static_cast<double>(queued()) *
                             static_cast<double>(now -
                                                 _last_queue_change);
    _last_queue_change = now;
}

double
Port::meanQueue(Tick makespan) const
{
    if (makespan == 0)
        return 0.0;
    // The integral is only maintained up to the last queue change;
    // after that the queue is whatever is still pending (usually 0 at
    // the end of a run).
    const double tail = static_cast<double>(queued()) *
                        static_cast<double>(makespan -
                                            std::min(makespan,
                                                     _last_queue_change));
    return (_stats.queue_integral + tail) /
           static_cast<double>(makespan);
}

} // namespace sim
} // namespace qmh
