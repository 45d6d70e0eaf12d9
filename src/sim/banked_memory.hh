/**
 * @file
 * Banked memory: per-bank queueing, bounded buffers, a shared port
 * issue-width, and deterministic bank-conflict accounting.
 *
 * This is the ported mgsim BankedMemory/ParallelMemory shape on the
 * resource kernel (port.hh): a request for @p address hashes to
 * bank `address % banks`; each bank is a width-1 Port that serves one
 * request at a time for `cycles_per_request + cycles_per_line x
 * lines` ticks out of a bounded request deque. All banks share a
 * TokenPool of `ports` issue tokens — the pin/bus width between the
 * requesters and the banks — so at most `ports` requests are in
 * service at once however many banks exist. Full bank buffers apply
 * deterministic backpressure: the submission waits at the requester
 * and is admitted in strict FIFO order when a slot frees.
 *
 * Everything above the cache boundary reads its contention truth from
 * here, as one Port::Stats summed over the banks: busy ticks, peak
 * and time-weighted mean queue occupancy, conflict-stall counts
 * (requests whose service start was delayed) and the total stall
 * ticks. A run without contention — enough banks, ports and buffer
 * for the traffic — reports zero conflict stalls, which tests pin.
 */

#ifndef QMH_SIM_BANKED_MEMORY_HH
#define QMH_SIM_BANKED_MEMORY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "port.hh"

namespace qmh {
namespace sim {

/** Static configuration of a BankedMemory. */
struct BankedMemoryConfig
{
    unsigned banks = 8;    ///< independent banks (address % banks)
    unsigned ports = 4;    ///< concurrent requests in service overall
    std::size_t buffer = 8;///< bounded request deque per bank
    /** Base service ticks charged to every request. */
    Tick cycles_per_request = 1;
    /** Additional service ticks per line transferred. */
    Tick cycles_per_line = 0;
};

/** Banked memory with bounded per-bank buffers and FIFO arbitration. */
class BankedMemory
{
  public:
    BankedMemory(EventQueue &eq, const BankedMemoryConfig &config);

    BankedMemory(const BankedMemory &) = delete;
    BankedMemory &operator=(const BankedMemory &) = delete;

    /**
     * Request @p lines lines at @p address; @p done (a null sink for
     * fire-and-forget traffic such as writebacks) is told when the
     * owning bank completes the service.
     */
    void request(std::uint64_t address, unsigned lines, Completion done);

    unsigned banks() const
    {
        return static_cast<unsigned>(_banks.size());
    }

    /** Bank a request for @p address is served by. */
    unsigned
    bankOf(std::uint64_t address) const
    {
        return static_cast<unsigned>(address % _banks.size());
    }

    /**
     * The banks' statistics as one: counts and ticks summed over the
     * banks; peak_queue and peak_in_service the largest any single
     * bank reached.
     */
    Port::Stats stats() const;

    /**
     * Time-weighted mean queued requests across the whole memory over
     * @p makespan (0 when the makespan is zero): the sum of the
     * banks' means, in bank order.
     */
    double meanQueue(Tick makespan) const;

  private:
    BankedMemoryConfig _config;
    TokenPool _tokens;
    // unique_ptr: Ports pin their address (pending events name the
    // port as their sink), so the vector must never relocate them.
    std::vector<std::unique_ptr<Port>> _banks;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_BANKED_MEMORY_HH
