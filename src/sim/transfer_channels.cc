#include "transfer_channels.hh"

namespace qmh {
namespace sim {

TransferChannels::TransferChannels(EventQueue &eq, unsigned capacity,
                                   std::size_t buffer)
    : Component(eq, "transfer-channels"),
      _port(*this, "wire", capacity, buffer)
{
}

void
TransferChannels::transfer(Tick ticks, Completion done)
{
    _port.submit(ticks, done);
}

double
TransferChannels::utilization(Tick busy, Tick makespan, unsigned capacity)
{
    const double capacity_ticks = static_cast<double>(makespan) *
                                  static_cast<double>(capacity);
    return capacity_ticks > 0.0
               ? static_cast<double>(busy) / capacity_ticks
               : 0.0;
}

} // namespace sim
} // namespace qmh
