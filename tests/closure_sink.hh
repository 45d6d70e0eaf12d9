/**
 * @file
 * Test-side adapter from closures to the event kernel. The kernel
 * dispatches only {sink, tag} events; a ClosureSink owns one closure
 * per event it schedules (the tag is the closure's index) and runs it
 * when the event is due, so a test can still say "at tick 35, do
 * this" in one line.
 */

#ifndef QMH_TESTS_CLOSURE_SINK_HH
#define QMH_TESTS_CLOSURE_SINK_HH

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace qmh {
namespace sim {

/** A sink that runs the closure each of its events was scheduled with. */
class ClosureSink final : public CompletionSink
{
  public:
    explicit ClosureSink(EventQueue &eq) : _eq(eq) {}

    /** Run @p fn at absolute time @p when. */
    void
    at(Tick when, std::function<void()> fn)
    {
        _fns.push_back(std::move(fn));
        _eq.schedule(when, {this, _fns.size() - 1});
    }

    /** Run @p fn @p delay ticks after now(). */
    void
    after(Tick delay, std::function<void()> fn)
    {
        at(_eq.now() + delay, std::move(fn));
    }

    void
    complete(std::uint64_t tag) override
    {
        // Moved out first: the closure may schedule more, growing _fns.
        const auto fn = std::move(_fns[tag]);
        fn();
    }

  private:
    EventQueue &_eq;
    std::vector<std::function<void()>> _fns;
};

} // namespace sim
} // namespace qmh

#endif // QMH_TESTS_CLOSURE_SINK_HH
