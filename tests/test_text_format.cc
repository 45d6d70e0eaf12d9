/** @file Assembly text format round-trip and error tests. */

#include <gtest/gtest.h>

#include "circuit/text_format.hh"

namespace qmh {
namespace circuit {
namespace {

TEST(TextFormat, WriteContainsHeaderAndGates)
{
    Program p("demo", 3);
    p.cnot(QubitId(0), QubitId(1));
    p.toffoli(QubitId(0), QubitId(1), QubitId(2));
    const auto text = writeText(p);
    EXPECT_NE(text.find("name demo"), std::string::npos);
    EXPECT_NE(text.find("qubits 3"), std::string::npos);
    EXPECT_NE(text.find("cnot q0 q1"), std::string::npos);
    EXPECT_NE(text.find("toffoli q0 q1 q2"), std::string::npos);
}

TEST(TextFormat, RoundTripPreservesProgram)
{
    Program p("rt", 5);
    p.h(QubitId(0));
    p.cphase(4, QubitId(1), QubitId(2));
    p.barrier();
    p.swapq(QubitId(3), QubitId(4));
    p.measure(QubitId(0));

    const auto parsed = parseText(writeText(p));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.program.size(), p.size());
    EXPECT_EQ(parsed.program.name(), "rt");
    EXPECT_EQ(parsed.program.qubitCount(), 5);
    for (std::size_t i = 0; i < p.size(); ++i) {
        EXPECT_EQ(parsed.program[i].kind, p[i].kind);
        EXPECT_EQ(parsed.program[i].param, p[i].param);
        EXPECT_EQ(parsed.program[i].arity, p[i].arity);
    }
}

TEST(TextFormat, CommentsAndBlankLinesIgnored)
{
    const auto result = parseText("# a comment\n\nqubits 2\n"
                                  "x q0  # trailing comment\n");
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.program.size(), 1u);
}

struct BadInput
{
    const char *text;
    const char *reason;
};

// Without this GTest prints the two pointers, and the test names that
// gtest_discover_tests builds from the printed parameter change with
// every load address.
void PrintTo(const BadInput &input, std::ostream *os)
{
    *os << input.reason;
}

class ParseErrors : public ::testing::TestWithParam<BadInput>
{};

TEST_P(ParseErrors, Rejected)
{
    const auto result = parseText(GetParam().text);
    EXPECT_FALSE(result.ok) << "should reject: " << GetParam().reason;
    EXPECT_FALSE(result.error.empty());
}

INSTANTIATE_TEST_SUITE_P(
    BadPrograms, ParseErrors,
    ::testing::Values(
        BadInput{"x q0\n", "instruction before qubits"},
        BadInput{"qubits -3\n", "negative register"},
        BadInput{"qubits two\n", "non-numeric register"},
        BadInput{"qubits 2\nfoo q0\n", "unknown mnemonic"},
        BadInput{"qubits 2\nx q5\n", "operand out of range"},
        BadInput{"qubits 2\nx j0\n", "bad operand syntax"},
        BadInput{"qubits 2\ncnot q0\n", "missing operand"},
        BadInput{"qubits 2\ncnot q0 q1 q1\n", "extra operand"},
        BadInput{"qubits 2\ncnot q1 q1\n", "duplicate operand"},
        BadInput{"qubits 3\ncphase q0 q1\n", "cphase missing k"},
        BadInput{"", "missing qubits directive"}));

TEST(TextFormat, ErrorCarriesLineNumber)
{
    const auto result = parseText("qubits 2\nx q0\nbogus q1\n");
    ASSERT_FALSE(result.ok);
    EXPECT_EQ(result.line, 3);
}

} // namespace
} // namespace circuit
} // namespace qmh
