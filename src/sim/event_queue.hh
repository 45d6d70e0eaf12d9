/**
 * @file
 * Discrete-event simulation kernel.
 *
 * An event is a Completion: a sink and a 64-bit tag, the same record
 * a port, bank or channel request completes to (mgsim's
 * IMemoryCallback + MemTag). Dispatching an event tells its sink the
 * tag, and the sink decodes what the tag names — a port's in-service
 * slot, a trace gate's pipeline stage. There is deliberately no
 * global singleton queue: every simulation owns its own EventQueue so
 * tests and benches can run many independent simulations in one
 * process.
 *
 * Dispatch order is the strict total order (tick, priority, seq),
 * where seq is the order of submission, so events of one tick and
 * priority run first-scheduled first. The storage layout below is
 * unobservable.
 *
 * Pending events live in FIFO lanes, one per (delay, priority) pair
 * in use. now() never decreases, so appending an event at
 * now() + delay to its pair's lane keeps every lane in (tick, seq)
 * order by construction; the next event is the least lane head,
 * found by a scan, with no sift. A simulation uses a handful of
 * distinct delays (a trace run: zero, bank service, wire transfer and
 * gate compute), so a fixed table of lane_count lanes takes them; an
 * empty lane is rebound to a new pair on demand. An event whose pair
 * finds no lane goes to one binary heap, so an arbitrary schedule
 * stays correct at O(log n) per event.
 */

#ifndef QMH_SIM_EVENT_QUEUE_HH
#define QMH_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hh"

namespace qmh {
namespace sim {

/** Receiver of events and of port request completions. */
class CompletionSink
{
  public:
    /** The event or request submitted with @p tag is due. */
    virtual void complete(std::uint64_t tag) = 0;

  protected:
    // Pending events hold the sink's address, so it never moves.
    CompletionSink() = default;
    CompletionSink(const CompletionSink &) = delete;
    CompletionSink &operator=(const CompletionSink &) = delete;
    ~CompletionSink() = default;
};

/**
 * Where an event or a served request reports: @p sink is told @p tag.
 * A request may carry a null sink (fire-and-forget traffic such as
 * writebacks); an event may not.
 */
struct Completion
{
    CompletionSink *sink = nullptr;
    std::uint64_t tag = 0;
};

/** Dispatch priority for events scheduled at the same tick. */
enum class Priority : int {
    Stat = -10,    ///< sampled before any same-tick state change
    Default = 0,
    Late = 10      ///< runs after all Default events of the tick
};

/**
 * Time-ordered event queue. Sinks may schedule further events while
 * handling one (including at the current tick).
 */
class EventQueue
{
  public:
    /** FIFO lanes; (delay, priority) pairs beyond them use the heap. */
    static constexpr std::size_t lane_count = 8;

    /** Current simulation time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p event at absolute time @p when (>= now()); its sink
     * must be non-null.
     * @return a monotonically increasing sequence id (for debugging).
     */
    std::uint64_t schedule(Tick when, Completion event,
                           Priority prio = Priority::Default);

    /** Schedule @p event @p delay ticks after now(). */
    std::uint64_t
    scheduleAfter(Tick delay, Completion event,
                  Priority prio = Priority::Default)
    {
        return schedule(_now + delay, event, prio);
    }

    /** True when no events remain. */
    bool empty() const { return _pending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /** Execute the single next event; returns false if none remain. */
    bool step();

    /**
     * Run until the queue drains or simulated time would pass
     * @p limit. Returns the final simulation time.
     */
    Tick run(Tick limit = max_tick);

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Events the queue can hold without growing its storage. */
    std::size_t capacity() const;

  private:
    /** A pending event; key is priority rank << seq_bits | seq. */
    struct Entry {
        Tick when;
        std::uint64_t key;
        CompletionSink *sink;
        std::uint64_t tag;
    };
    static_assert(sizeof(Entry) == 32, "an entry is four words");

    /** A ring FIFO (power-of-two capacity) of one (delay, priority). */
    struct Lane {
        std::vector<Entry> ring;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    /// Low key bits holding seq; the priority rank sits above them.
    static constexpr unsigned seq_bits = 58;

    /// "a dispatches after b" under the (tick, key) order.
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.key > b.key;
        }
    };

    bool dispatchNext(Tick limit);
    void pushLane(std::size_t lane, const Entry &entry);
    Entry popLane(std::size_t lane);
    Entry popHeap();

    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _executed = 0;
    std::size_t _pending = 0;

    /// Lanes ever bound; the head scan stops here.
    std::size_t _lanes_used = 0;
    std::array<Lane, lane_count> _lanes{};
    /// Per bound lane: its pair as delay << 5 | priority rank.
    std::array<std::uint64_t, lane_count> _selector{};
    /// Per lane head (tick, key); (max_tick, ~0) when the lane is empty.
    std::array<Tick, lane_count> _head_when{};
    std::array<std::uint64_t, lane_count> _head_key{};

    std::vector<Entry> _heap;   ///< events no lane took, min-heap
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_EVENT_QUEUE_HH
