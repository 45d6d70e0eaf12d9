#include "hierarchy_sim.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"
#include "hierarchy.hh"
#include "net/transfer.hh"
#include "sim/banked_memory.hh"
#include "sim/event_queue.hh"
#include "sim/transfer_channels.hh"

namespace qmh {
namespace cqla {

namespace {

/**
 * The adder pipelines of both levels, and the sink of every event and
 * request of the run. A tag is `chained << 2 | stage` (Stage below);
 * only a bank or wave stage carries a chained bit.
 */
struct Pipeline final : sim::CompletionSink
{
    enum Stage : std::uint64_t {
        Bank = 0,      ///< the owning bank staged the critical set
        Wave = 1,      ///< the channel wave delivered it: compute
        Level1 = 2,    ///< start the next level-1 addition
        Level2 = 3     ///< start the next level-2 addition
    };

    Pipeline(sim::EventQueue &eq, sim::BankedMemory &memory,
             sim::TransferChannels &channels)
        : eq(eq), memory(memory), channels(channels)
    {
    }

    sim::EventQueue &eq;
    sim::BankedMemory &memory;
    sim::TransferChannels &channels;

    // Level 2: back-to-back additions.
    Tick t2 = 0;
    Tick l2_busy_until = 0;
    std::uint64_t l2_remaining = 0;

    // Level 1: stage the critical set in its bank, pull it through
    // the transfer channels, then compute.
    double chain_dependent_fraction = 0.0;
    unsigned critical_qubits = 0;
    Tick per_qubit = 0;
    Tick transfer_latency = 0;
    Tick t1_compute = 0;
    std::uint64_t remaining = 0;
    std::uint64_t started = 0;

    void
    dispatchLevel2()
    {
        if (l2_remaining == 0)
            return;
        --l2_remaining;
        l2_busy_until = std::max(l2_busy_until, eq.now()) + t2;
        eq.schedule(l2_busy_until, {this, Level2});
    }

    void
    dispatchLevel1()
    {
        if (remaining == 0)
            return;
        --remaining;
        const bool chained =
            chain_dependent_fraction > 0.0 &&
            static_cast<double>(started % 100) <
                chain_dependent_fraction * 100.0;
        // Successive additions walk the banks round-robin, the
        // natural interleaving of a striped accumulator layout.
        const std::uint64_t address = started;
        ++started;
        memory.request(address, critical_qubits,
                       {this, std::uint64_t{chained} << 2 | Bank});
    }

    void
    complete(std::uint64_t tag) override
    {
        switch (static_cast<Stage>(tag & 3)) {
          case Bank:
            // The staged set goes out as one channel pipelining the
            // batch for its wave latency while all critical qubits
            // charge the busy accounting.
            channels.transfer(transfer_latency,
                              static_cast<Tick>(critical_qubits) *
                                  per_qubit,
                              {this, (tag & ~std::uint64_t{3}) | Wave});
            return;
          case Wave: {
            // A chain-dependent addition computes no earlier than the
            // level-2 accumulator.
            const bool chained = (tag >> 2) != 0;
            const Tick compute_start =
                chained ? std::max(eq.now(), l2_busy_until) : eq.now();
            eq.schedule(compute_start + t1_compute, {this, Level1});
            return;
          }
          case Level1:
            dispatchLevel1();
            return;
          case Level2:
            dispatchLevel2();
            return;
        }
    }
};

} // namespace

HierarchySimResult
runHierarchySim(const HierarchySimConfig &config,
                const iontrap::Params &params)
{
    if (config.total_adders == 0)
        qmh_fatal("hierarchy sim needs at least one addition");
    if (config.level1_fraction < 0.0 || config.level1_fraction > 1.0)
        qmh_fatal("level1_fraction out of range");
    if (config.chain_dependent_fraction < 0.0 ||
        config.chain_dependent_fraction > 1.0)
        qmh_fatal("chain_dependent_fraction out of range");

    const auto code = ecc::Code::byKind(config.code);
    HierarchyModel model(params);
    const auto &timing = model.perf().adderTiming(config.n_bits);

    // Per-adder durations.
    const double t2_s = timing.boundedMakespanSteps(config.blocks) *
                        code.gateStepTime(2, params);
    const double t1_compute_s =
        static_cast<double>(timing.critical_path_steps) *
        code.gateStepTime(1, params);
    const net::TransferNetwork transfer(params);
    const double per_qubit_s =
        transfer.transferTime({config.code, 2}, {config.code, 1}) *
        code.transferChannelCost();
    const auto critical_qubits = static_cast<unsigned>(
        HierarchyModel::critical_transfer_qubits);

    const Tick t2 = units::secondsToTicks(t2_s);
    const Tick t1_compute = units::secondsToTicks(t1_compute_s);
    const Tick per_qubit = units::secondsToTicks(per_qubit_s);

    sim::EventQueue eq;
    sim::TransferChannels channels(eq, config.parallel_transfers);
    sim::BankedMemoryConfig mem_config;
    mem_config.banks = config.mem_banks;
    mem_config.ports = config.mem_ports;
    mem_config.buffer = config.mem_buffer;
    // The bank stages one critical set per request: the base charge
    // is one qubit-transfer time (never zero), plus the configured
    // per-line cost for each critical qubit in the set.
    mem_config.cycles_per_request = std::max<Tick>(1, per_qubit);
    mem_config.cycles_per_line = config.cycles_per_line;
    sim::BankedMemory memory(eq, "l2-memory", mem_config);

    HierarchySimResult result;
    const auto l1_target = static_cast<std::uint64_t>(std::llround(
        config.level1_fraction *
        static_cast<double>(config.total_adders)));
    result.level1_adds = l1_target;
    result.level2_adds = config.total_adders - l1_target;

    // A level-1 critical set crosses the transfer channels in
    // ceil(critical/channels) serial waves.
    const unsigned waves =
        (critical_qubits + config.parallel_transfers - 1) /
        config.parallel_transfers;
    Pipeline pipeline(eq, memory, channels);
    pipeline.t2 = t2;
    pipeline.l2_remaining = result.level2_adds;
    pipeline.chain_dependent_fraction = config.chain_dependent_fraction;
    pipeline.critical_qubits = critical_qubits;
    pipeline.per_qubit = per_qubit;
    pipeline.transfer_latency = static_cast<Tick>(waves) * per_qubit;
    pipeline.t1_compute = t1_compute;
    pipeline.remaining = result.level1_adds;

    eq.schedule(0, {&pipeline, Pipeline::Level2});
    eq.schedule(0, {&pipeline, Pipeline::Level1});
    eq.run();

    result.makespan_s = units::ticksToSeconds(eq.now());
    result.baseline_s =
        static_cast<double>(config.total_adders) * t2_s;
    result.makespan_speedup =
        result.makespan_s > 0.0 ? result.baseline_s / result.makespan_s
                                : 0.0;

    // Add-weighted mean speedup (the paper's Table-5 metric).
    const double s1 =
        t2_s / (t1_compute_s +
                static_cast<double>(critical_qubits) * per_qubit_s /
                    config.parallel_transfers);
    const double qla_t2 =
        static_cast<double>(timing.critical_path_steps) *
        ecc::Code::steane().gateStepTime(2, params);
    const double s2 = qla_t2 / t2_s;
    const double f = config.level1_fraction;
    result.mean_adder_speedup = f * s1 + (1.0 - f) * s2;

    if (eq.executed() == 0)
        qmh_panic("hierarchy sim executed no events");
    result.events_executed = eq.executed();
    result.transfer_utilization = channels.utilization(eq.now());
    result.mem_requests = memory.requests();
    result.bank_conflicts = memory.bankConflicts();
    result.mem_stall_ticks = memory.stallTicks();
    result.mem_peak_queue = memory.peakQueue();
    result.mem_mean_queue = memory.meanQueue(eq.now());
    result.mem_utilization = memory.utilization(eq.now());
    return result;
}

} // namespace cqla
} // namespace qmh
