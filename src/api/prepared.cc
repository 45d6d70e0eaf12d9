#include "prepared.hh"

#include <algorithm>
#include <map>
#include <string_view>
#include <tuple>

#include "api/workload.hh"
#include "sched/latency.hh"

namespace qmh {
namespace api {

trace::PreparedWorkload
prepareWorkload(const ExperimentSpec &spec, Random &rng,
                const std::vector<unsigned> &blocks)
{
    return trace::PreparedWorkload(buildWorkload(spec, rng),
                                   sched::LatencyModel{}, blocks);
}

const trace::PreparedWorkload &
PreparedSlot::get(const ExperimentSpec &spec, Random &rng) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_prepared)
        _prepared.emplace(prepareWorkload(spec, rng, _blocks));
    return *_prepared;
}

trace::TraceResult
PreparedSlot::runTrace(const trace::PreparedWorkload &prepared,
                       const trace::TraceConfig &config,
                       const ExperimentSpec &spec) const
{
    auto key = config;
    key.transfers = 0;
    {
        std::lock_guard<std::mutex> lock(_runs_mutex);
        for (const auto &run : _runs)
            if (run.config == key && run.machine == spec.machine)
                if (auto reused =
                        trace::atTransfers(run.result, config.transfers))
                    return *std::move(reused);
    }
    // Simulated outside the lock: two points that could share a run
    // may both simulate it when they run concurrently, which costs
    // time but never changes a row.
    auto result = trace::runTrace(prepared, config, spec.params());
    std::lock_guard<std::mutex> lock(_runs_mutex);
    _runs.push_back({key, spec.machine, result});
    return result;
}

std::size_t
PreparedSlot::simulatedRuns() const
{
    std::lock_guard<std::mutex> lock(_runs_mutex);
    return _runs.size();
}

void
sharePreparedWorkloads(
    const std::vector<std::unique_ptr<Experiment>> &experiments)
{
    // Everything a generator reads from the spec; a superset is safe
    // (it only splits groups), a missing field would not be. The name
    // views the experiments' own specs, which outlive the map.
    using Key = std::tuple<std::string_view, int, int, int, bool>;
    struct Group
    {
        std::vector<WorkloadExperiment *> points;
        std::vector<unsigned> blocks;
    };
    std::map<Key, Group> groups;
    for (const auto &experiment : experiments) {
        auto *point = dynamic_cast<WorkloadExperiment *>(experiment.get());
        if (!point)
            continue;
        const auto &spec = point->spec();
        const auto *generator = findWorkload(spec.workload);
        if (!generator || generator->seeded)
            continue;
        auto &group = groups[Key{spec.workload, spec.n, spec.reps,
                                 spec.gates, spec.mask_data}];
        group.points.push_back(point);
        if (spec.kind == ExperimentKind::Trace)
            group.blocks.push_back(spec.blocks);
    }
    for (auto &[key, group] : groups) {
        if (group.points.size() < 2)
            continue;
        auto &blocks = group.blocks;
        std::sort(blocks.begin(), blocks.end());
        blocks.erase(std::unique(blocks.begin(), blocks.end()),
                     blocks.end());
        const auto slot =
            std::make_shared<const PreparedSlot>(std::move(blocks));
        for (auto *point : group.points)
            point->share(slot);
    }
}

std::shared_ptr<const PreparedSlot>
preparedSlot(const Experiment &experiment)
{
    const auto *point = dynamic_cast<const WorkloadExperiment *>(&experiment);
    return point ? point->slot() : nullptr;
}

} // namespace api
} // namespace qmh
