/** @file Unit tests for sweep seeding and result emission. */

#include <gtest/gtest.h>

#include <sstream>

#include "sweep/emit.hh"
#include "sweep/sweep.hh"

namespace qmh {
namespace {

TEST(Sweep, PointSeedIsDeterministicAndDistinct)
{
    EXPECT_EQ(sweep::pointSeed(1, 0), sweep::pointSeed(1, 0));
    EXPECT_NE(sweep::pointSeed(1, 0), sweep::pointSeed(1, 1));
    EXPECT_NE(sweep::pointSeed(1, 0), sweep::pointSeed(2, 0));
    // Adjacent indices must not produce correlated seeds.
    const auto a = sweep::pointSeed(99, 7);
    const auto b = sweep::pointSeed(99, 8);
    EXPECT_GT(a ^ b, 0xFFFFFFFFULL);
}

TEST(Emit, CsvQuotesOnlyWhenNeeded)
{
    sweep::ResultTable table({"name", "value"});
    table.addRow({"plain", 3});
    table.addRow({"com,ma", 1.5});
    table.addRow({"qu\"ote", std::uint64_t(7)});
    std::ostringstream os;
    table.writeCsv(os);
    EXPECT_EQ(os.str(), "name,value\n"
                        "plain,3\n"
                        "\"com,ma\",1.5\n"
                        "\"qu\"\"ote\",7\n");
}

TEST(Emit, DoublesRoundTripExactly)
{
    const double value = 0.1 + 0.2; // not representable as "0.3"
    sweep::ResultTable table({"v"});
    table.addRow({value});
    std::ostringstream os;
    table.writeCsv(os);
    const auto body = os.str().substr(os.str().find('\n') + 1);
    EXPECT_EQ(std::stod(body), value);
}

TEST(Emit, JsonShapesRowsAsObjects)
{
    sweep::ResultTable table({"label", "speedup"});
    table.addRow({"steane", 6.25});
    table.addRow({"line\nbreak", 1});
    std::ostringstream os;
    table.writeJson(os);
    EXPECT_EQ(os.str(), "[\n"
                        "  {\"label\": \"steane\", \"speedup\": 6.25},\n"
                        "  {\"label\": \"line\\nbreak\", \"speedup\": 1}\n"
                        "]\n");
}

} // namespace
} // namespace qmh
