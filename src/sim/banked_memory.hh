/**
 * @file
 * Banked memory: per-bank FIFO queueing, a shared port issue-width,
 * and deterministic bank-conflict accounting.
 *
 * This is the ported mgsim BankedMemory/ParallelMemory shape on the
 * resource kernel (port.hh): a request for @p address hashes to
 * bank `address % banks`; each bank is a width-1 Port that serves one
 * request at a time, for `service` ticks each, in submission order.
 * All banks share a TokenPool of `ports` issue tokens — the pin/bus
 * width between the requesters and the banks — so at most `ports`
 * requests are in service at once however many banks exist.
 *
 * Everything above the cache boundary reads its contention truth from
 * here, as one Port::Stats summed over the banks: busy ticks, peak
 * and time-weighted mean queue occupancy, conflict-stall counts
 * (requests whose service start was delayed) and the total stall
 * ticks. A run without contention — enough banks and ports for the
 * traffic — reports zero conflict stalls, which tests pin.
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
    Tick service = 1;      ///< ticks a bank holds each request (>= 1)
};

/** Banked memory with a FIFO per bank and a shared issue width. */
class BankedMemory
{
  public:
    BankedMemory(EventQueue &eq, const BankedMemoryConfig &config);

    BankedMemory(const BankedMemory &) = delete;
    BankedMemory &operator=(const BankedMemory &) = delete;

    /**
     * Request the line at @p address; @p done (a null sink for
     * fire-and-forget traffic such as writebacks) is told when the
     * owning bank completes the service.
     */
    void
    request(std::uint64_t address, Completion done)
    {
        _banks[bankOf(address)]->submit(_service, done);
    }

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
    Tick _service;
    TokenPool _tokens;
    // unique_ptr: Ports pin their address (pending events name the
    // port as their sink), so the vector must never relocate them.
    std::vector<std::unique_ptr<Port>> _banks;
};

} // namespace sim
} // namespace qmh

#endif // QMH_SIM_BANKED_MEMORY_HH
