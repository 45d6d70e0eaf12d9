#include "banked_memory.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace qmh {
namespace sim {

BankedMemory::BankedMemory(EventQueue &eq, std::string name,
                           const BankedMemoryConfig &config)
    : Component(eq, std::move(name)), _config(config),
      _tokens(config.ports)
{
    if (config.banks == 0)
        qmh_fatal("banked memory '", this->name(),
                  "' must have at least one bank");
    if (config.cycles_per_request == 0)
        qmh_fatal("banked memory '", this->name(),
                  "' must charge at least one tick per request");
    _banks.reserve(config.banks);
    for (unsigned b = 0; b < config.banks; ++b)
        _banks.push_back(std::make_unique<Port>(
            *this, "bank" + std::to_string(b), /*width=*/1,
            config.buffer, &_tokens));
}

void
BankedMemory::request(std::uint64_t address, unsigned lines,
                      Completion done)
{
    const Tick service = _config.cycles_per_request +
                         _config.cycles_per_line *
                             static_cast<Tick>(lines);
    _banks[bankOf(address)]->submit(service, done);
}

std::uint64_t
BankedMemory::requests() const
{
    std::uint64_t total = 0;
    for (const auto &bank : _banks)
        total += bank->stats().requests;
    return total;
}

std::uint64_t
BankedMemory::served() const
{
    std::uint64_t total = 0;
    for (const auto &bank : _banks)
        total += bank->stats().served;
    return total;
}

std::uint64_t
BankedMemory::bankConflicts() const
{
    std::uint64_t total = 0;
    for (const auto &bank : _banks)
        total += bank->stats().conflict_stalls;
    return total;
}

std::uint64_t
BankedMemory::bufferOverflows() const
{
    std::uint64_t total = 0;
    for (const auto &bank : _banks)
        total += bank->stats().buffer_overflows;
    return total;
}

Tick
BankedMemory::stallTicks() const
{
    Tick total = 0;
    for (const auto &bank : _banks)
        total += bank->stats().stall_ticks;
    return total;
}

Tick
BankedMemory::busyTicks() const
{
    Tick total = 0;
    for (const auto &bank : _banks)
        total += bank->stats().busy_ticks;
    return total;
}

std::size_t
BankedMemory::peakQueue() const
{
    std::size_t peak = 0;
    for (const auto &bank : _banks)
        peak = std::max(peak, bank->stats().peak_queue);
    return peak;
}

double
BankedMemory::meanQueue(Tick makespan) const
{
    if (makespan == 0)
        return 0.0;
    double total = 0.0;
    for (const auto &bank : _banks)
        total += bank->meanQueue(makespan);
    return total;
}

double
BankedMemory::utilization(Tick makespan) const
{
    if (makespan == 0 || _banks.empty())
        return 0.0;
    double busy = 0.0;
    for (const auto &bank : _banks)
        busy += static_cast<double>(bank->stats().busy_ticks);
    return busy / (static_cast<double>(makespan) *
                   static_cast<double>(_banks.size()));
}

} // namespace sim
} // namespace qmh
