/**
 * @file
 * Data-dependency analysis of a logical program.
 *
 * Two instructions conflict when they share a qubit operand (quantum
 * data cannot be copied, so every shared operand is a true dependency).
 * The DAG drives the list scheduler, the parallelism profiles (paper
 * Fig. 2) and the optimized cache fetch policy (paper Section 5.2).
 *
 * A barrier depends on the last toucher of every qubit, in ascending
 * order. Building its edges costs O(qubits + operands of the gates
 * since the previous barrier), with no sort, so a program's barriers
 * together cost O(barriers × qubits + gates); a program without
 * barriers pays O(operands) for the whole build.
 */

#ifndef QMH_CIRCUIT_DAG_HH
#define QMH_CIRCUIT_DAG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "program.hh"

namespace qmh {
namespace circuit {

/** Dependency DAG over a program's instructions (indexed by position). */
class DependencyGraph
{
  public:
    explicit DependencyGraph(const Program &program);

    std::size_t size() const { return _in_degree.size(); }

    std::span<const std::uint32_t>
    successors(std::size_t i) const
    {
        return {_succ_edges.data() + _succ_offset[i],
                _succ_offset[i + 1] - _succ_offset[i]};
    }

    /** Successor adjacency in CSR form (offsets into succEdges()). */
    const std::vector<std::uint32_t> &succOffsets() const
    {
        return _succ_offset;
    }

    /** Flat successor edge array (indexed via succOffsets()). */
    const std::vector<std::uint32_t> &succEdges() const
    {
        return _succ_edges;
    }

    /** Number of unfinished predecessors at the start (in-degree). */
    int inDegree(std::size_t i) const { return _in_degree[i]; }

    /** Critical-path length in gates (max ASAP level + 1); 0 if empty. */
    std::uint32_t depth() const;

    /**
     * Per-level instruction counts, an instruction's level being its
     * ASAP step under unit gate latency (the earliest step it can
     * issue with unlimited resources): the unlimited-resources
     * parallelism profile of the program (paper Fig. 2's upper curve).
     */
    std::vector<std::uint32_t> parallelismProfile() const;

    /** Maximum number of gates issuable in one level. */
    std::uint32_t maxParallelism() const;

  private:
    // Successor adjacency in CSR form: one flat edge array plus
    // per-node offsets, so construction is two passes over a flat
    // edge list instead of thousands of small vector allocations.
    std::vector<std::uint32_t> _succ_offset;
    std::vector<std::uint32_t> _succ_edges;
    std::vector<int> _in_degree;
};

} // namespace circuit
} // namespace qmh

#endif // QMH_CIRCUIT_DAG_HH
