#include "banked_memory.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"

namespace qmh {
namespace sim {

BankedMemory::BankedMemory(EventQueue &eq,
                           const BankedMemoryConfig &config)
    : _service(config.service), _tokens(config.ports)
{
    if (config.banks == 0)
        qmh_fatal("banked memory must have at least one bank");
    if (config.service == 0)
        qmh_fatal("banked memory must charge at least one tick per "
                  "request");
    _banks.reserve(config.banks);
    for (unsigned b = 0; b < config.banks; ++b)
        _banks.push_back(std::make_unique<Port>(
            eq, "bank" + std::to_string(b), /*width=*/1, &_tokens));
}

Port::Stats
BankedMemory::stats() const
{
    Port::Stats total;
    for (const auto &bank : _banks) {
        const auto &s = bank->stats();
        total.requests += s.requests;
        total.served += s.served;
        total.conflict_stalls += s.conflict_stalls;
        total.stall_ticks += s.stall_ticks;
        total.busy_ticks += s.busy_ticks;
        total.peak_queue = std::max(total.peak_queue, s.peak_queue);
        total.peak_in_service =
            std::max(total.peak_in_service, s.peak_in_service);
        total.queue_integral += s.queue_integral;
    }
    return total;
}

double
BankedMemory::meanQueue(Tick makespan) const
{
    if (makespan == 0)
        return 0.0;
    // Per-bank quotients summed in bank order (not the summed
    // integral over the makespan), so the reported bytes stay those
    // of the per-bank means.
    double total = 0.0;
    for (const auto &bank : _banks)
        total += bank->meanQueue(makespan);
    return total;
}

} // namespace sim
} // namespace qmh
