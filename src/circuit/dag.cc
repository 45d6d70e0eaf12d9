#include "dag.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace qmh {
namespace circuit {

DependencyGraph::DependencyGraph(const Program &program)
{
    const auto &insts = program.instructions();
    const std::size_t m = insts.size();
    _in_degree.assign(m, 0);

    // One flat (pred, succ) edge list in discovery order, converted
    // to CSR in a second pass — successor edges are gathered by a
    // stable counting sort, and the whole build does a handful of
    // allocations however many gates the program has.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(2 * m);

    // last_writer[q] = most recent instruction touching qubit q.
    std::vector<std::int64_t> last_writer(
        static_cast<std::size_t>(program.qubitCount()), -1);
    // The previous barrier: every qubit's last toucher is it or a
    // gate after it.
    std::int64_t last_barrier = -1;

    for (std::size_t i = 0; i < m; ++i) {
        if (insts[i].kind == GateKind::Barrier) {
            // A barrier synchronizes against every qubit: depend on
            // the distinct set of last touchers and become the last
            // toucher of everything. That set is the previous barrier
            // (if some qubit still names it) followed by each gate
            // since it that still names one of its operands — already
            // ascending and distinct, so no sort.
            const auto self = static_cast<std::uint32_t>(i);
            const auto first_edge = edges.size();
            if (last_barrier >= 0 &&
                std::find(last_writer.begin(), last_writer.end(),
                          last_barrier) != last_writer.end())
                edges.emplace_back(
                    static_cast<std::uint32_t>(last_barrier), self);
            for (auto j = static_cast<std::size_t>(last_barrier + 1);
                 j < i; ++j) {
                const auto gate = static_cast<std::int64_t>(j);
                for (const auto &q : insts[j].operands()) {
                    if (last_writer[q.value()] == gate) {
                        edges.emplace_back(
                            static_cast<std::uint32_t>(j), self);
                        break;
                    }
                }
            }
            _in_degree[i] =
                static_cast<int>(edges.size() - first_edge);
            std::fill(last_writer.begin(), last_writer.end(),
                      static_cast<std::int64_t>(i));
            last_barrier = static_cast<std::int64_t>(i);
            continue;
        }
        const auto first_edge = edges.size();
        for (const auto &q : insts[i].operands()) {
            const auto prev = last_writer[q.value()];
            if (prev >= 0) {
                const auto p = static_cast<std::uint32_t>(prev);
                // Avoid duplicate edges when two operands share the
                // same predecessor (operand counts are tiny, so the
                // linear scan is over at most a couple of entries).
                bool duplicate = false;
                for (auto e = first_edge; e < edges.size(); ++e)
                    duplicate |= edges[e].first == p;
                if (!duplicate) {
                    edges.emplace_back(p,
                                       static_cast<std::uint32_t>(i));
                    ++_in_degree[i];
                }
            }
            last_writer[q.value()] = static_cast<std::int64_t>(i);
        }
    }

    // Successor CSR: stable counting sort by source keeps each
    // node's successors in discovery (ascending) order.
    _succ_offset.assign(m + 1, 0);
    for (const auto &edge : edges)
        ++_succ_offset[edge.first + 1];
    for (std::size_t i = 0; i < m; ++i)
        _succ_offset[i + 1] += _succ_offset[i];
    _succ_edges.resize(edges.size());
    std::vector<std::uint32_t> cursor(_succ_offset.begin(),
                                      _succ_offset.end() - 1);
    for (const auto &edge : edges)
        _succ_edges[cursor[edge.first]++] = edge.second;
}

std::uint32_t
DependencyGraph::depth() const
{
    return static_cast<std::uint32_t>(parallelismProfile().size());
}

std::vector<std::uint32_t>
DependencyGraph::parallelismProfile() const
{
    // ASAP level of each instruction under unit gate latency. Program
    // order is a topological order, so one forward pass that pushes
    // each level to the successors suffices.
    std::vector<std::uint32_t> level(size(), 0);
    std::vector<std::uint32_t> profile;
    for (std::size_t i = 0; i < size(); ++i) {
        for (const auto s : successors(i))
            level[s] = std::max(level[s], level[i] + 1);
        if (level[i] >= profile.size())
            profile.resize(level[i] + 1, 0);
        ++profile[level[i]];
    }
    return profile;
}

std::uint32_t
DependencyGraph::maxParallelism() const
{
    std::uint32_t best = 0;
    for (const auto count : parallelismProfile())
        best = std::max(best, count);
    return best;
}

} // namespace circuit
} // namespace qmh
