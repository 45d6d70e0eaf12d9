/** @file Dependency-graph tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/workload.hh"
#include "circuit/dag.hh"
#include "common/random.hh"
#include "gen/draper.hh"

namespace qmh {
namespace circuit {
namespace {

TEST(DependencyGraph, ChainIsSequential)
{
    Program p("chain", 2);
    p.x(QubitId(0));
    p.x(QubitId(0));
    p.cnot(QubitId(0), QubitId(1));
    DependencyGraph dag(p);
    EXPECT_EQ(dag.depth(), 3u);
    EXPECT_EQ(dag.inDegree(0), 0);
    EXPECT_EQ(dag.inDegree(1), 1);
    EXPECT_EQ(dag.inDegree(2), 1);
    EXPECT_EQ(dag.successors(0).size(), 1u);
}

TEST(DependencyGraph, IndependentGatesShareLevel)
{
    Program p("par", 4);
    p.x(QubitId(0));
    p.x(QubitId(1));
    p.cnot(QubitId(2), QubitId(3));
    DependencyGraph dag(p);
    EXPECT_EQ(dag.depth(), 1u);
    EXPECT_EQ(dag.maxParallelism(), 3u);
}

TEST(DependencyGraph, SharedOperandCreatesEdgeEvenControlControl)
{
    // Quantum data cannot be copied: two gates reading the same qubit
    // still serialize.
    Program p("cc", 3);
    p.cnot(QubitId(0), QubitId(1));
    p.cnot(QubitId(0), QubitId(2));
    DependencyGraph dag(p);
    EXPECT_EQ(dag.depth(), 2u);
}

TEST(DependencyGraph, DuplicatePredecessorsDeduped)
{
    Program p("dup", 3);
    p.cnot(QubitId(0), QubitId(1));
    p.cnot(QubitId(0), QubitId(1));
    DependencyGraph dag(p);
    EXPECT_EQ(dag.successors(0).size(), 1u);
    EXPECT_EQ(dag.inDegree(1), 1);
}

TEST(DependencyGraph, ParallelismProfileCountsPerLevel)
{
    Program p("prof", 4);
    p.x(QubitId(0));
    p.x(QubitId(1));
    p.cnot(QubitId(0), QubitId(1));
    p.x(QubitId(2));
    DependencyGraph dag(p);
    const auto profile = dag.parallelismProfile();
    ASSERT_EQ(profile.size(), 2u);
    EXPECT_EQ(profile[0], 3u);  // two X's + the independent x q2
    EXPECT_EQ(profile[1], 1u);
}

TEST(DependencyGraph, BarrierSynchronizesEverything)
{
    Program p("bar", 3);
    p.x(QubitId(0));
    p.barrier();
    p.x(QubitId(1));  // independent of x q0, but behind the barrier
    DependencyGraph dag(p);
    EXPECT_EQ(dag.depth(), 3u);
    EXPECT_EQ(dag.inDegree(2), 1);
}

TEST(DependencyGraph, BarrierDependsOnAllTouchedQubits)
{
    Program p("bar2", 4);
    p.x(QubitId(0));
    p.x(QubitId(1));
    p.barrier();
    DependencyGraph dag(p);
    EXPECT_EQ(dag.inDegree(2), 2);
    for (const std::size_t gate : {0u, 1u}) {
        ASSERT_EQ(dag.successors(gate).size(), 1u);
        EXPECT_EQ(dag.successors(gate)[0], 2u);
    }
}

TEST(DependencyGraph, EmptyProgram)
{
    Program p("empty", 2);
    DependencyGraph dag(p);
    EXPECT_EQ(dag.size(), 0u);
    EXPECT_EQ(dag.depth(), 0u);
    EXPECT_TRUE(dag.parallelismProfile().empty());
}


// ---------------------------------------------------------------------------
// Reference DAG: the plain sort-based barrier algorithm, checked against
// DependencyGraph over generated programs.
// ---------------------------------------------------------------------------

/** The DAG as plain per-node lists, built the obvious way. */
struct ReferenceDag
{
    std::vector<std::vector<std::uint32_t>> preds, succs;
    std::vector<std::uint32_t> asap;
    std::uint32_t depth = 0;
};

ReferenceDag
referenceDag(const Program &program)
{
    const auto &insts = program.instructions();
    ReferenceDag dag;
    dag.preds.resize(insts.size());
    dag.succs.resize(insts.size());
    std::vector<std::int64_t> last(
        static_cast<std::size_t>(program.qubitCount()), -1);
    for (std::size_t i = 0; i < insts.size(); ++i) {
        auto &preds = dag.preds[i];
        if (insts[i].kind == GateKind::Barrier) {
            // Every qubit's last toucher, sorted and deduplicated.
            for (auto &toucher : last) {
                if (toucher >= 0)
                    preds.push_back(static_cast<std::uint32_t>(toucher));
                toucher = static_cast<std::int64_t>(i);
            }
            std::sort(preds.begin(), preds.end());
            preds.erase(std::unique(preds.begin(), preds.end()),
                        preds.end());
        } else {
            // Each operand's last toucher, in operand order, once.
            for (const auto &q : insts[i].operands()) {
                const auto prev = last[q.value()];
                if (prev >= 0 &&
                    std::find(preds.begin(), preds.end(), prev) ==
                        preds.end())
                    preds.push_back(static_cast<std::uint32_t>(prev));
                last[q.value()] = static_cast<std::int64_t>(i);
            }
        }
        std::uint32_t level = 0;
        for (const auto p : preds) {
            dag.succs[p].push_back(static_cast<std::uint32_t>(i));
            level = std::max(level, dag.asap[p] + 1);
        }
        dag.asap.push_back(level);
        dag.depth = std::max(dag.depth, level + 1);
    }
    return dag;
}

void
expectMatchesReference(const Program &program, const std::string &label)
{
    SCOPED_TRACE(label);
    const DependencyGraph dag(program);
    const auto want = referenceDag(program);
    ASSERT_EQ(dag.size(), want.preds.size());
    // Successor lists and in-degrees together pin every edge.
    for (std::size_t i = 0; i < dag.size(); ++i) {
        const auto succs = dag.successors(i);
        ASSERT_EQ(std::vector<std::uint32_t>(succs.begin(), succs.end()),
                  want.succs[i])
            << "successors of " << i;
        ASSERT_EQ(dag.inDegree(i), static_cast<int>(want.preds[i].size()))
            << "in-degree of " << i;
    }
    std::vector<std::uint32_t> profile(want.depth, 0);
    for (const auto level : want.asap)
        ++profile[level];
    EXPECT_EQ(dag.parallelismProfile(), profile);
    EXPECT_EQ(dag.depth(), want.depth);
}

/**
 * A random program over @p qubits qubits (0 allowed: barriers only).
 * Gates draw from the first `used` qubits, so some may never be
 * touched; barriers come in runs, so leading, consecutive and
 * trailing barriers all occur.
 */
Program
randomProgram(Random &rng, int qubits)
{
    Program p("random", qubits);
    const int used =
        qubits == 0 ? 0
                    : static_cast<int>(rng.uniformRange(1, qubits));
    const auto length = rng.uniformRange(0, 60);
    const double barrier_share = rng.uniform() * 0.5;
    auto pick = [&](std::vector<int> &taken) {
        int q = 0;
        do
            q = static_cast<int>(rng.uniformInt(
                static_cast<std::uint64_t>(used)));
        while (std::find(taken.begin(), taken.end(), q) != taken.end());
        taken.push_back(q);
        return QubitId(q);
    };
    for (std::int64_t g = 0; g < length; ++g) {
        if (used == 0 || rng.bernoulli(barrier_share)) {
            const auto run = rng.uniformRange(1, 3);
            for (std::int64_t b = 0; b < run; ++b)
                p.barrier();
            continue;
        }
        std::vector<int> taken;
        const auto arity = rng.uniformRange(1, std::min(used, 3));
        if (arity == 1) {
            p.x(pick(taken));
        } else if (arity == 2) {
            const auto a = pick(taken);
            p.cnot(a, pick(taken));
        } else {
            const auto a = pick(taken);
            const auto b = pick(taken);
            p.toffoli(a, b, pick(taken));
        }
    }
    return p;
}

TEST(DependencyGraph, MatchesSortingReferenceOnRandomBarrierPrograms)
{
    Random rng(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        const auto qubits = static_cast<int>(rng.uniformRange(0, 12));
        expectMatchesReference(randomProgram(rng, qubits),
                               "trial " + std::to_string(trial));
        if (HasFatalFailure())
            return;
    }
}

TEST(DependencyGraph, MatchesSortingReferenceOnEdgeShapes)
{
    Program none("zero-qubits", 0);
    none.barrier();
    none.barrier();
    expectMatchesReference(none, "zero qubits, barriers only");
    expectMatchesReference(Program("empty", 0), "zero qubits, empty");

    Program edges("edges", 6);  // qubits 4 and 5 never touched
    edges.barrier();
    edges.barrier();
    edges.x(QubitId(0));
    edges.cnot(QubitId(1), QubitId(2));
    edges.barrier();
    edges.barrier();
    edges.toffoli(QubitId(0), QubitId(1), QubitId(3));
    edges.x(QubitId(0));
    edges.barrier();
    edges.barrier();
    expectMatchesReference(edges, "leading, consecutive, trailing");
}

TEST(DependencyGraph, MatchesSortingReferenceOnEveryGenerator)
{
    for (const auto &generator : api::workloadRegistry()) {
        for (const int n : {2, 3, 8, 17, 32}) {
            api::ExperimentSpec spec;
            spec.workload = generator.name;
            spec.n = n;
            if (!api::workloadDiagnostics(spec).empty())
                continue;
            Random rng(static_cast<std::uint64_t>(n));
            expectMatchesReference(
                api::buildWorkload(spec, rng).program,
                generator.name + " n=" + std::to_string(n));
        }
    }
    for (const auto mode : {gen::UncomputeMode::Full,
                            gen::UncomputeMode::CarriesLeftDirty})
        for (const int n : {1, 5, 16, 33})
            for (const bool keep_carry : {false, true})
                expectMatchesReference(
                    gen::draperAdder(n, keep_carry, nullptr, mode, true),
                    "draper barriers n=" + std::to_string(n));
}

} // namespace
} // namespace circuit
} // namespace qmh
