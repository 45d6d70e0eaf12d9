/**
 * @file
 * Functional verification of the generated adders: the reversible
 * simulator *proves* b <- a + b on exhaustive small cases and random
 * large cases, for both the Draper carry-lookahead and the ripple
 * baseline, in every uncompute mode.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/dag.hh"
#include "circuit/reversible.hh"
#include "common/random.hh"
#include "gen/draper.hh"
#include "gen/ripple.hh"

namespace qmh {
namespace gen {
namespace {

using circuit::QubitId;

enum class AdderKind { Draper, Ripple };

circuit::Program
makeAdder(AdderKind kind, int n, bool keep_carry, AdderLayout *layout)
{
    if (kind == AdderKind::Draper)
        return draperAdder(n, keep_carry, layout);
    return rippleAdder(n, keep_carry, layout);
}

/** Run one addition and check sum, carry and ancilla cleanliness. */
::testing::AssertionResult
checkAddition(const circuit::Program &prog, const AdderLayout &layout,
              std::uint64_t a, std::uint64_t b)
{
    const int n = layout.bits;
    circuit::ReversibleState st(layout.total_qubits);
    st.loadInteger(a, layout.a_offset, n);
    st.loadInteger(b, layout.b_offset, n);
    if (!st.run(prog))
        return ::testing::AssertionFailure() << "non-classical gate";

    const std::uint64_t mask = n == 64 ? ~0ULL : (1ULL << n) - 1;
    const std::uint64_t sum = st.readInteger(layout.b_offset, n);
    if (sum != ((a + b) & mask))
        return ::testing::AssertionFailure()
               << a << "+" << b << " gave " << sum;
    if (st.readInteger(layout.a_offset, n) != a)
        return ::testing::AssertionFailure() << "operand a corrupted";

    if (layout.keeps_carry) {
        const bool carry = st.get(QubitId(layout.carryOutQubit()));
        // For n = 64 the true carry is the unsigned-add overflow.
        const bool expected =
            n < 64 ? ((a + b) >> n) != 0 : (a + b) < a;
        if (carry != expected)
            return ::testing::AssertionFailure() << "carry wrong";
    }
    // Ancilla cleanliness (skip carry-out qubit when kept).
    for (int i = 0; i < n; ++i) {
        if (layout.keeps_carry && i == n - 1)
            continue;
        if (st.get(QubitId(layout.carry_offset + i)))
            return ::testing::AssertionFailure()
                   << "carry ancilla " << i << " dirty";
    }
    for (int i = 0; i < layout.tree_size; ++i)
        if (st.get(QubitId(layout.tree_offset + i)))
            return ::testing::AssertionFailure()
                   << "tree ancilla " << i << " dirty";
    return ::testing::AssertionSuccess();
}

class ExhaustiveSmallAdders
    : public ::testing::TestWithParam<std::tuple<AdderKind, int, bool>>
{};

TEST_P(ExhaustiveSmallAdders, AllInputsCorrect)
{
    const auto [kind, n, keep_carry] = GetParam();
    AdderLayout layout;
    const auto prog = makeAdder(kind, n, keep_carry, &layout);
    for (std::uint64_t a = 0; a < (1ULL << n); ++a)
        for (std::uint64_t b = 0; b < (1ULL << n); ++b)
            ASSERT_TRUE(checkAddition(prog, layout, a, b))
                << "n=" << n << " a=" << a << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    UpTo6Bits, ExhaustiveSmallAdders,
    ::testing::Combine(::testing::Values(AdderKind::Draper,
                                         AdderKind::Ripple),
                       ::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Bool()));

class RandomLargeAdders
    : public ::testing::TestWithParam<std::tuple<AdderKind, int>>
{};

TEST_P(RandomLargeAdders, RandomInputsCorrect)
{
    const auto [kind, n] = GetParam();
    AdderLayout layout;
    const auto prog = makeAdder(kind, n, true, &layout);
    Random rng(0xC0FFEE + n);
    for (int trial = 0; trial < 64; ++trial) {
        const std::uint64_t bound = n >= 64 ? 0 : (1ULL << n);
        const std::uint64_t a =
            bound ? rng.uniformInt(bound) : rng.next();
        const std::uint64_t b =
            bound ? rng.uniformInt(bound) : rng.next();
        ASSERT_TRUE(checkAddition(prog, layout, a, b))
            << "n=" << n << " a=" << a << " b=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(
    WideWidths, RandomLargeAdders,
    ::testing::Combine(::testing::Values(AdderKind::Draper,
                                         AdderKind::Ripple),
                       ::testing::Values(7, 8, 13, 16, 23, 32, 48, 64)));

TEST(DraperAdder, ForwardOnlyModeStillAdds)
{
    // CarriesLeftDirty keeps the sum correct; the carry register holds
    // the (deterministic) carry string instead of zero.
    AdderLayout layout;
    const auto prog = draperAdder(16, true, &layout,
                                  UncomputeMode::CarriesLeftDirty);
    Random rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        const auto a = rng.uniformInt(1u << 16);
        const auto b = rng.uniformInt(1u << 16);
        circuit::ReversibleState st(layout.total_qubits);
        st.loadInteger(a, layout.a_offset, 16);
        st.loadInteger(b, layout.b_offset, 16);
        ASSERT_TRUE(st.run(prog));
        EXPECT_EQ(st.readInteger(layout.b_offset, 16),
                  (a + b) & 0xFFFFu);
        // Carry register holds the carry string: bit i = carry out of
        // bits [0..i].
        std::uint64_t carries = 0;
        std::uint64_t c = 0;
        for (int i = 0; i < 16; ++i) {
            const std::uint64_t ai = (a >> i) & 1;
            const std::uint64_t bi = (b >> i) & 1;
            c = (ai & bi) | (ai & c) | (bi & c);
            carries |= c << i;
        }
        EXPECT_EQ(st.readInteger(layout.carry_offset, 16), carries);
        // Tree ancilla must still be clean.
        for (int i = 0; i < layout.tree_size; ++i)
            ASSERT_FALSE(st.get(QubitId(layout.tree_offset + i)));
    }
}

TEST(DraperAdder, BarriersDoNotChangeSemantics)
{
    AdderLayout with_layout, without_layout;
    const auto with = draperAdder(12, true, &with_layout,
                                  UncomputeMode::Full, true);
    const auto without = draperAdder(12, true, &without_layout,
                                     UncomputeMode::Full, false);
    EXPECT_GT(with.size(), without.size());
    EXPECT_EQ(with.gateCount(circuit::GateKind::Toffoli),
              without.gateCount(circuit::GateKind::Toffoli));
    Random rng(5);
    for (int trial = 0; trial < 50; ++trial) {
        const auto a = rng.uniformInt(1u << 12);
        const auto b = rng.uniformInt(1u << 12);
        ASSERT_TRUE(checkAddition(with, with_layout, a, b));
        ASSERT_TRUE(checkAddition(without, without_layout, a, b));
    }
}

TEST(DraperAdder, StructuralCounts)
{
    // ~10n Toffolis for the full adder, ~5n forward-only, and
    // logarithmic round depth (Toffoli depth ~4 log2 n + O(1)).
    AdderLayout layout;
    const auto full = draperAdder(64, true, &layout);
    const auto toffolis =
        full.gateCount(circuit::GateKind::Toffoli);
    EXPECT_GE(toffolis, 550u);
    EXPECT_LE(toffolis, 680u);
    EXPECT_EQ(layout.tree_size, draperTreeSize(64));
    EXPECT_EQ(draperTreeSize(64), 63);
    EXPECT_EQ(draperTreeSize(1), 0);
    EXPECT_EQ(layout.total_qubits, 3 * 64 + 63);

    const auto forward = draperAdder(64, true, nullptr,
                                     UncomputeMode::CarriesLeftDirty);
    EXPECT_LT(forward.gateCount(circuit::GateKind::Toffoli), toffolis);
}

TEST(DraperAdder, LogDepthBeatsRippleLinearDepth)
{
    for (int n : {16, 32, 64}) {
        const auto cla = draperAdder(n, true, nullptr,
                                     UncomputeMode::CarriesLeftDirty,
                                     false);
        const auto rip = rippleAdder(n, true, nullptr);
        circuit::DependencyGraph cla_dag(cla);
        circuit::DependencyGraph rip_dag(rip);
        EXPECT_LT(cla_dag.depth() * 2, rip_dag.depth())
            << "CLA should be much shallower at n=" << n;
    }
}

TEST(DraperAdder, PeakParallelismIsOperandWidth)
{
    const auto prog = draperAdder(64, true, nullptr,
                                  UncomputeMode::CarriesLeftDirty);
    circuit::DependencyGraph dag(prog);
    EXPECT_EQ(dag.maxParallelism(), 64u);
}

TEST(AdderDeath, RejectsZeroWidth)
{
    EXPECT_THROW(draperAdder(0), std::invalid_argument);
    EXPECT_THROW(rippleAdder(0), std::invalid_argument);
}

} // namespace
} // namespace gen
} // namespace qmh
