/** @file Unit tests for the ASCII table renderer and table cells. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "sweep/emit.hh"

namespace qmh {
namespace {

std::string
rendered(const AsciiTable &table)
{
    std::ostringstream os;
    table.print(os);
    return os.str();
}

/**
 * Data rows and columns of a caption-free rendered table: its lines
 * less the three rules and the header, and the cells between the
 * '+' corners of its top rule.
 */
std::pair<std::size_t, std::size_t>
renderedShape(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    const auto corners =
        std::count(lines.front().begin(), lines.front().end(), '+');
    return {lines.size() - 4, static_cast<std::size_t>(corners - 1)};
}

TEST(AsciiTable, RendersHeaderAndRows)
{
    AsciiTable t;
    t.setHeader({"n", "value"});
    t.addRow({"32", "1.5"});
    t.addRow({"1024", "13.4"});
    const auto text = rendered(t);
    EXPECT_NE(text.find(" n |"), std::string::npos);
    EXPECT_NE(text.find("1024"), std::string::npos);
    EXPECT_NE(text.find("13.4"), std::string::npos);
}

TEST(AsciiTable, ColumnWidthsExpandToContent)
{
    AsciiTable t;
    t.setHeader({"x"});
    t.addRow({"a-very-long-cell"});
    const auto text = rendered(t);
    EXPECT_NE(text.find("a-very-long-cell"), std::string::npos);
}

TEST(AsciiTable, CaptionPrintedFirst)
{
    AsciiTable t;
    t.setCaption("Table 4");
    t.setHeader({"a"});
    t.addRow({"1"});
    const auto text = rendered(t);
    EXPECT_EQ(text.rfind("Table 4", 0), 0u);
}

TEST(AsciiTable, NumFormatting)
{
    EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(AsciiTable::num(std::uint64_t(42)), "42");
}

TEST(AsciiTable, SciFormatting)
{
    EXPECT_EQ(AsciiTable::sci(3.1e-3, 1), "3.1e-03");
}

TEST(AsciiTable, CountsRowsAndColumns)
{
    AsciiTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"1", "2", "3"});
    EXPECT_EQ(renderedShape(rendered(t)),
              (std::pair<std::size_t, std::size_t>{1, 3}));
}

TEST(Cell, NonFiniteDoublesEmitJsonNull)
{
    // Regression: bare inf/nan tokens are not valid JSON; the whole
    // emitted document would be unparseable.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(sweep::Cell(inf).toJson(), "null");
    EXPECT_EQ(sweep::Cell(-inf).toJson(), "null");
    EXPECT_EQ(sweep::Cell(nan).toJson(), "null");
    // Finite doubles and the other cell types are untouched.
    EXPECT_EQ(sweep::Cell(2.5).toJson(), "2.5");
    EXPECT_EQ(sweep::Cell(std::string("inf")).toJson(), "\"inf\"");

    sweep::ResultTable table({"speedup"});
    table.addRow({0.0 / 0.0});
    table.addRow({1.0 / 0.0});
    std::ostringstream os;
    table.writeJson(os);
    EXPECT_EQ(os.str(), "[\n"
                        "  {\"speedup\": null},\n"
                        "  {\"speedup\": null}\n"
                        "]\n");
}

TEST(Cell, AsNumberCoversNumericAlternatives)
{
    EXPECT_DOUBLE_EQ(sweep::Cell(1.25).asNumber().value(), 1.25);
    EXPECT_DOUBLE_EQ(sweep::Cell(-3).asNumber().value(), -3.0);
    EXPECT_DOUBLE_EQ(sweep::Cell(std::uint64_t(9)).asNumber().value(),
                     9.0);
    EXPECT_FALSE(sweep::Cell("text").asNumber().has_value());
}

TEST(ResultTable, AccessorsAndDescendingSort)
{
    sweep::ResultTable table({"label", "score"});
    table.addRow({"low", 1.0});
    table.addRow({"high", 3.0});
    table.addRow({"mid", 2.0});
    table.addRow({"text-score", "n/a"});
    ASSERT_TRUE(table.findColumn("score").has_value());
    EXPECT_EQ(*table.findColumn("score"), 1u);
    EXPECT_FALSE(table.findColumn("missing").has_value());

    table.sortRowsByColumn(1, true);
    EXPECT_EQ(table.cell(0, 0).toString(), "high");
    EXPECT_EQ(table.cell(1, 0).toString(), "mid");
    EXPECT_EQ(table.cell(2, 0).toString(), "low");
    // Non-numeric cells sort below every number.
    EXPECT_EQ(table.cell(3, 0).toString(), "text-score");
}

TEST(ResultTable, ToAsciiDropsColumnsAndCapsRows)
{
    sweep::ResultTable table({"spec", "n", "rate"});
    table.addRow({"experiment=cache", 64, 0.75});
    table.addRow({"experiment=cache n=128", 128, 0.5});
    const auto ascii =
        sweep::toAsciiTable(table, 1, {"spec"});
    const auto text = rendered(ascii);
    EXPECT_EQ(renderedShape(text),
              (std::pair<std::size_t, std::size_t>{1, 2}));
    EXPECT_EQ(text.find("experiment"), std::string::npos);
    EXPECT_NE(text.find("rate"), std::string::npos);
}

TEST(AsciiTableDeath, MismatchedRowPanics)
{
    AsciiTable t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(AsciiTableDeath, RowBeforeHeaderPanics)
{
    AsciiTable t;
    EXPECT_DEATH(t.addRow({"x"}), "setHeader");
}

} // namespace
} // namespace qmh
