/** @file QFT and random-circuit generator tests. */

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/dag.hh"
#include "circuit/reversible.hh"
#include "gen/qft.hh"
#include "gen/random_circuit.hh"

namespace qmh {
namespace gen {
namespace {

/** True when every gate of @p prog is classical reversible logic. */
bool
allClassical(const circuit::Program &prog)
{
    return std::all_of(prog.instructions().begin(),
                       prog.instructions().end(), [](const auto &inst) {
                           return circuit::isClassicalGate(inst.kind);
                       });
}

TEST(Qft, GateCountsMatchClosedForm)
{
    for (int n : {2, 5, 16, 100}) {
        const auto prog = qft(n);
        EXPECT_EQ(prog.gateCount(circuit::GateKind::H),
                  static_cast<std::uint64_t>(n));
        // One controlled phase per qubit pair: n(n-1)/2.
        EXPECT_EQ(prog.gateCount(circuit::GateKind::Cphase),
                  static_cast<std::uint64_t>(n * (n - 1) / 2));
        EXPECT_EQ(prog.gateCount(circuit::GateKind::Swap), 0u);
    }
}

TEST(Qft, SwapNetworkOptional)
{
    const auto prog = qft(9, true);
    EXPECT_EQ(prog.gateCount(circuit::GateKind::Swap), 4u);
}

TEST(Qft, CphaseCountFormula)
{
    const auto cphases = [](int n) {
        return qft(n).gateCount(circuit::GateKind::Cphase);
    };
    EXPECT_EQ(cphases(1), 0u);
    EXPECT_EQ(cphases(2), 1u);
    EXPECT_EQ(cphases(300), 44850u);
}

TEST(Qft, RotationIndicesAreDistanceBased)
{
    const auto prog = qft(4);
    for (const auto &inst : prog.instructions()) {
        if (inst.kind != circuit::GateKind::Cphase)
            continue;
        const int dist =
            static_cast<int>(inst.ops[1].value()) -
            static_cast<int>(inst.ops[0].value());
        EXPECT_EQ(inst.param, dist + 1);
        EXPECT_GE(inst.param, 2);
    }
}

TEST(Qft, SerialChainStructure)
{
    // Each qubit's H gate depends on all rotations targeting it; the
    // DAG depth grows linearly in n (the paper runs QFT serialized).
    const auto prog = qft(12);
    circuit::DependencyGraph dag(prog);
    EXPECT_GE(dag.depth(), 12u);
}

TEST(RandomCircuit, ReversibleOnlyUsesClassicalGates)
{
    Random rng(1);
    const auto prog = randomReversible(8, 500, rng);
    EXPECT_TRUE(allClassical(prog));
    EXPECT_EQ(prog.size(), 500u);
    circuit::ReversibleState st(8);
    EXPECT_TRUE(st.run(prog));
}

TEST(RandomCircuit, MixedUsesQuantumGates)
{
    Random rng(2);
    const auto prog = randomMixed(8, 500, rng);
    EXPECT_FALSE(allClassical(prog));
}

TEST(RandomCircuit, DeterministicUnderSeed)
{
    Random a(7), b(7);
    const auto pa = randomReversible(6, 100, a);
    const auto pb = randomReversible(6, 100, b);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i].kind, pb[i].kind);
        EXPECT_EQ(pa[i].ops, pb[i].ops);
    }
}

TEST(RandomCircuit, SelfInverseRoundTrip)
{
    // Appending the reverse of a classical circuit undoes it (each
    // X/CNOT/SWAP/Toffoli is self-inverse).
    Random rng(3);
    auto prog = randomReversible(10, 300, rng);
    circuit::Program inverse("inv", 10);
    const auto &insts = prog.instructions();
    for (auto it = insts.rbegin(); it != insts.rend(); ++it)
        inverse.append(*it);

    circuit::ReversibleState st(10);
    st.loadInteger(0x2B5, 0, 10);
    ASSERT_TRUE(st.run(prog));
    ASSERT_TRUE(st.run(inverse));
    EXPECT_EQ(st.readInteger(0, 10), 0x2B5u);
}

} // namespace
} // namespace gen
} // namespace qmh
