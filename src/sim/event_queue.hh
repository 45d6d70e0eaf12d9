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
 * Dispatch order is the strict total order (tick, seq), where seq is
 * the order of submission, so events of one tick run first-scheduled
 * first. The storage layout below is unobservable.
 *
 * Pending events live in FIFO lanes, one per delay in use. now()
 * never decreases, so appending an event at now() + delay to its
 * delay's lane keeps every lane in (tick, seq) order by construction;
 * the next event is the least lane head, found by a scan, with no
 * sift. A simulation uses a handful of distinct delays (a trace run:
 * zero, bank service, wire transfer and gate compute), so a fixed
 * table of lane_count lanes takes them; an empty lane is rebound to a
 * new delay on demand. An event whose delay finds no lane goes to one
 * binary heap, so an arbitrary schedule stays correct at O(log n) per
 * event.
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

/**
 * Time-ordered event queue. Sinks may schedule further events while
 * handling one (including at the current tick).
 */
class EventQueue
{
  public:
    /** FIFO lanes; delays beyond them use the heap. */
    static constexpr std::size_t lane_count = 8;

    /** Current simulation time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p event at absolute time @p when (>= now()); its sink
     * must be non-null.
     */
    void schedule(Tick when, Completion event);

    /** Schedule @p event @p delay ticks after now(). */
    void
    scheduleAfter(Tick delay, Completion event)
    {
        schedule(_now + delay, event);
    }

    /** Run until the queue drains; now() is then the last event's tick. */
    void run();

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /** Events the queue can hold without growing its storage. */
    std::size_t capacity() const;

  private:
    /** A pending event; seq is its order of submission. */
    struct Entry {
        Tick when;
        std::uint64_t seq;
        CompletionSink *sink;
        std::uint64_t tag;
    };
    static_assert(sizeof(Entry) == 32, "an entry is four words");

    /** A ring FIFO (power-of-two capacity) of one delay. */
    struct Lane {
        std::vector<Entry> ring;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    /// "a dispatches after b" under the (tick, seq) order.
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    bool dispatchNext();
    void pushLane(std::size_t lane, const Entry &entry);
    Entry popLane(std::size_t lane);
    Entry popHeap();

    Tick _now = 0;
    std::uint64_t _next_seq = 0;
    std::uint64_t _executed = 0;

    /// Lanes ever bound; the head scan stops here.
    std::size_t _lanes_used = 0;
    std::array<Lane, lane_count> _lanes{};
    /// Per bound lane: its delay.
    std::array<Tick, lane_count> _delay{};
    /// Per lane head (tick, seq); (max_tick, ~0) when the lane is empty.
    std::array<Tick, lane_count> _head_when{};
    std::array<std::uint64_t, lane_count> _head_seq{};

    std::vector<Entry> _heap;   ///< events no lane took, min-heap
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_EVENT_QUEUE_HH
