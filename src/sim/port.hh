/**
 * @file
 * Resource kernel for the discrete-event simulator.
 *
 * The EventQueue dispatches {sink, tag} events (event_queue.hh);
 * every contended resource of the hierarchy — the level-2 memory
 * banks and the counted code-transfer channels — is built from two
 * small pieces modeled on mgsim's port architecture
 * (ParallelMemory/BankedMemory):
 *
 *  - Port: a named service point on one EventQueue. A port has
 *    `width` identical servers and one unbounded FIFO of waiting
 *    requests. A request completes to a Completion: a sink and a
 *    tag, as mgsim's memories complete to an IMemoryCallback and a
 *    MemTag, so a request is plain data. The port is the sink of its
 *    own service-end events, tagged with the request's slot in a
 *    table that grows with the requests actually in service, never
 *    with the width. Arbitration is deterministic: same-tick
 *    submissions are served in submission order, never in hash or
 *    pointer order. Ports never share state across queues, so every
 *    simulation run stays an isolated, deterministic world.
 *
 *  - TokenPool: a counted issue-width shared by several ports (e.g.
 *    the memory ports in front of the banks). A port that cannot
 *    take a token parks itself in the pool's FIFO and is woken in
 *    parking order when a token returns.
 *
 * Every port keeps the contention statistics the honest-contention
 * models need (Port::Stats): busy server-time, peak and time-weighted
 * mean queue occupancy, conflict-stall counts (requests whose service
 * start was delayed) and the total ticks those requests waited. The
 * busy fraction of a port is units::busyFraction(busy_ticks, span,
 * width).
 */

#ifndef QMH_SIM_PORT_HH
#define QMH_SIM_PORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "event_queue.hh"

namespace qmh {
namespace sim {

class Port;

/**
 * A counted pool of issue tokens shared by several ports. Ports
 * that find the pool empty park in FIFO order and are woken — in
 * that order — as tokens return.
 */
class TokenPool
{
  public:
    /** @param capacity concurrent tokens (must be nonzero) */
    explicit TokenPool(unsigned capacity);

  private:
    friend class Port;

    /** Take a token if one is free. */
    bool tryAcquire();

    /** Return a token and wake the longest-parked port. */
    void release();

    /** Park @p port until a token returns (idempotent). */
    void enlist(Port &port);

    unsigned _capacity;
    unsigned _in_use = 0;
    /** Parked ports, FIFO from _next_waiter; the woken prefix is
     *  dropped in bulk rather than one front erase per wake. */
    std::vector<Port *> _waiters;
    std::size_t _next_waiter = 0;
};

/**
 * A service point with @p width identical servers, one FIFO of
 * waiting requests and deterministic arbitration.
 *
 * submit() places a request; when a server (and, if the port shares a
 * TokenPool, a token) is available the request is served for its
 * @p service ticks, then its completion's sink is told its tag.
 * Requests are always served in submission order, and the time each
 * one waits is counted.
 */
class Port final : private CompletionSink
{
  public:
    /** Contention statistics of one port. */
    struct Stats
    {
        std::uint64_t requests = 0;   ///< submissions accepted
        std::uint64_t served = 0;     ///< completions delivered
        /** Requests whose service start was delayed (> 0 ticks). */
        std::uint64_t conflict_stalls = 0;
        Tick stall_ticks = 0;         ///< total queued waiting time
        Tick busy_ticks = 0;          ///< total server-time held
        std::size_t peak_queue = 0;   ///< max requests waiting
        /** Max requests holding a server at once. */
        unsigned peak_in_service = 0;
        double queue_integral = 0.0;  ///< time-weighted queued requests
    };

    /**
     * @param eq     event queue the port runs on
     * @param name   port name (diagnostics only)
     * @param width  identical servers (must be nonzero)
     * @param tokens optional shared issue-width pool
     */
    Port(EventQueue &eq, std::string name, unsigned width,
         TokenPool *tokens = nullptr);

    Port(const Port &) = delete;
    Port &operator=(const Port &) = delete;
    Port(Port &&) = delete;
    Port &operator=(Port &&) = delete;

    /**
     * Submit a request that holds one server for @p service ticks and
     * then reports to @p done (a null sink for fire-and-forget
     * traffic such as writebacks).
     */
    void submit(Tick service, Completion done);

    const Stats &stats() const { return _stats; }

    /**
     * Time-weighted mean queue occupancy over @p makespan (0 when the
     * makespan is zero).
     */
    double meanQueue(Tick makespan) const;

  private:
    struct Request
    {
        Tick service;
        Tick submitted;
        Completion done;
    };

    friend class TokenPool;

    /** Requests waiting to start. */
    std::size_t queued() const { return _count; }

    /** Start as many queued requests as servers/tokens allow. Inline
     *  so the common nothing-to-start case costs no call. */
    void
    pump()
    {
        if (_count > 0 && _in_service < _width)
            startQueued();
    }
    void startQueued();
    void startFront();
    void start(Tick service, Completion done);
    void pushBack(const Request &request);
    /** Service of the request in slot @p tag ended. */
    void complete(std::uint64_t tag) override;
    void noteQueueChange();

    EventQueue &_eq;
    std::string _name;
    unsigned _width;
    TokenPool *_tokens;

    /** Waiting requests as one ring FIFO from _head (power-of-two
     *  capacity, reused across the run). */
    std::vector<Request> _ring;
    std::size_t _head = 0;
    std::size_t _count = 0;

    /** Completions of the requests in service, by slot, and the
     *  slots free for reuse. */
    std::vector<Completion> _slots;
    std::vector<std::uint32_t> _free_slots;

    unsigned _in_service = 0;
    bool _parked = false;           ///< enlisted in the token pool
    Tick _last_queue_change = 0;
    Stats _stats;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_PORT_HH
