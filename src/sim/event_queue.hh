/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The queue dispatches callables in (tick, priority, insertion-order)
 * order. Components schedule lambdas; there is deliberately no global
 * singleton queue — every simulation owns its own EventQueue so tests
 * and benches can run many independent simulations in one process.
 *
 * Internally the queue is one binary min-heap over a reused vector,
 * sized for the simulations it serves: a trace run has at most about
 * blocks + memory ports + transfer channels (under a hundred) events
 * pending, so a heap that shallow needs no calendar buckets or
 * horizon tuning.
 *
 *  - Heap entries carry the (tick, priority, seq) key inline next to
 *    a pointer to their event frame, so ordering never dereferences
 *    a frame.
 *
 *  - Event frames live in a per-queue arena (blocks of frames strung
 *    on a free list), so steady-state scheduling performs no heap
 *    allocation. Handlers are stored in a small-buffer-optimized
 *    callable inline in the frame; closures beyond the inline budget
 *    spill to the heap and are counted (spilledHandlers()) so tests
 *    can pin the hot path to zero spills.
 *
 *  - The inline budget is 32 bytes, so a frame is 64 bytes, one
 *    cache line's worth. With few events pending and most pops
 *    landing on the current tick, moving the payload, not ordering
 *    the heap, is what an event costs; every hot-path closure (a
 *    port completion is {port, sink, tag}) fits in four words.
 *
 * Dispatch order is governed solely by the strict total order
 * (tick, priority, seq), so the heap layout is unobservable.
 */

#ifndef QMH_SIM_EVENT_QUEUE_HH
#define QMH_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/small_function.hh"
#include "common/units.hh"

namespace qmh {
namespace sim {

/** Dispatch priority for events scheduled at the same tick. */
enum class Priority : int {
    Stat = -10,    ///< sampled before any same-tick state change
    Default = 0,
    Late = 10      ///< runs after all Default events of the tick
};

/**
 * Time-ordered event queue. Events may schedule further events while
 * executing (including at the current tick).
 */
class EventQueue
{
  public:
    /** Inline closure budget per event frame, bytes. */
    static constexpr std::size_t event_inline_bytes = 32;

    using Handler = std::function<void()>;
    using EventFn = common::SmallFunction<event_inline_bytes>;

    /** Current simulation time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn at absolute time @p when (>= now()).
     * @return a monotonically increasing sequence id (for debugging).
     */
    std::uint64_t schedule(Tick when, Handler fn,
                           Priority prio = Priority::Default);

    /**
     * Schedule any callable at absolute time @p when (>= now()).
     * Closures up to event_inline_bytes are stored inline in the
     * arena frame; larger ones spill to the heap (counted).
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Handler> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    std::uint64_t
    schedule(Tick when, F &&fn, Priority prio = Priority::Default)
    {
        return scheduleImpl(when, EventFn(std::forward<F>(fn)), prio);
    }

    /** Schedule @p fn @p delay ticks after now(). */
    template <typename F>
    std::uint64_t
    scheduleAfter(Tick delay, F &&fn,
                  Priority prio = Priority::Default)
    {
        return schedule(_now + delay, std::forward<F>(fn), prio);
    }

    /** True when no events remain. */
    bool empty() const { return _heap.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return _heap.size(); }

    /** Execute the single next event; returns false if none remain. */
    bool step();

    /**
     * Run until the queue drains or simulated time would pass
     * @p limit. Returns the final simulation time.
     */
    Tick run(Tick limit = max_tick);

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Arena blocks allocated over the queue's lifetime. */
    std::size_t arenaBlocks() const { return _blocks.size(); }

    /** Event frames the arena can hold without growing. */
    std::size_t
    arenaCapacity() const
    {
        return _blocks.size() * block_events;
    }

    /** Handlers too large for the inline budget (heap spills). */
    std::uint64_t spilledHandlers() const { return _spilled; }

  private:
    /// Event frames per arena block.
    static constexpr std::size_t block_events = 128;

    /** Arena slot: the handler, or the free-list link when idle. */
    struct Frame {
        EventFn fn;
        Frame *next_free = nullptr;
    };
    static_assert(sizeof(Frame) == 64,
                  "an event frame is one cache line's worth");

    /** Heap entry: the dispatch key inline beside its frame. */
    struct Entry {
        Tick when;
        std::uint64_t seq;
        int prio;
        Frame *frame;
    };

    /// "a dispatches after b" under the (tick, priority, seq) order.
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.seq > b.seq;
        }
    };

    std::uint64_t scheduleImpl(Tick when, EventFn fn, Priority prio);
    void dispatchTop();
    Frame *allocFrame();

    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _executed = 0;

    std::vector<Entry> _heap;   ///< pending events, min-heap

    std::vector<std::unique_ptr<Frame[]>> _blocks;
    Frame *_free = nullptr;
    std::uint64_t _spilled = 0;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_EVENT_QUEUE_HH
