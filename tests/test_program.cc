/** @file Program container tests. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/program.hh"

namespace qmh {
namespace circuit {
namespace {

TEST(Program, EmittersAppendInstructions)
{
    Program p("t", 4);
    p.x(QubitId(0));
    p.cnot(QubitId(0), QubitId(1));
    p.toffoli(QubitId(0), QubitId(1), QubitId(2));
    p.cphase(3, QubitId(2), QubitId(3));
    p.barrier();
    EXPECT_EQ(p.size(), 5u);
    EXPECT_EQ(p[1].kind, GateKind::Cnot);
    EXPECT_EQ(p[3].param, 3);
}

TEST(Program, GateCountsAndHistogram)
{
    Program p("t", 3);
    p.x(QubitId(0));
    p.x(QubitId(1));
    p.cnot(QubitId(0), QubitId(1));
    EXPECT_EQ(p.gateCount(GateKind::X), 2u);
    EXPECT_EQ(p.gateCount(GateKind::Cnot), 1u);
    EXPECT_EQ(p.gateCount(GateKind::Toffoli), 0u);
    const auto hist = p.gateHistogram();
    EXPECT_EQ(hist.at(GateKind::X), 2u);
    EXPECT_EQ(hist.size(), 2u);
}

TEST(Program, ConcatAppendsSequentially)
{
    Program a("a", 3);
    a.x(QubitId(0));
    Program b("b", 2);
    b.x(QubitId(1));
    a.concat(b);
    EXPECT_EQ(a.size(), 2u);
}

TEST(ProgramDeath, OutOfRangeOperandPanics)
{
    Program p("t", 2);
    EXPECT_DEATH(p.x(QubitId(5)), "outside");
}

TEST(ProgramDeath, ConcatWiderProgramFails)
{
    Program a("a", 2);
    Program b("b", 5);
    EXPECT_THROW(a.concat(b), std::invalid_argument);
}

} // namespace
} // namespace circuit
} // namespace qmh
