/**
 * @file
 * Machine-readable sweep-result emission (CSV and JSON).
 *
 * The reproduction benches print paper-style ASCII tables for humans;
 * this module emits the same sweep results in forms downstream tooling
 * can parse: RFC-4180-style CSV and a JSON array of row objects.
 * Numeric cells round-trip exactly (shortest representation that
 * parses back to the same double).
 */

#ifndef QMH_SWEEP_EMIT_HH
#define QMH_SWEEP_EMIT_HH

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/table.hh"

namespace qmh {
namespace sweep {

/** One table cell: text, real, or integer. */
class Cell
{
  public:
    Cell(std::string text) : _value(std::move(text)) {}
    Cell(const char *text) : _value(std::string(text)) {}
    Cell(double v) : _value(v) {}
    Cell(std::int64_t v) : _value(v) {}
    Cell(std::uint64_t v) : _value(v) {}
    Cell(int v) : _value(static_cast<std::int64_t>(v)) {}
    Cell(unsigned v) : _value(static_cast<std::uint64_t>(v)) {}

    bool isText() const
    {
        return std::holds_alternative<std::string>(_value);
    }

    bool isReal() const
    {
        return std::holds_alternative<double>(_value);
    }

    /** Numeric value as a double; nullopt for text cells. */
    std::optional<double> asNumber() const;

    /** Unquoted rendering (CSV body, JSON number, or raw text). */
    std::string toString() const;

    /**
     * JSON value: quoted+escaped for text, bare for numbers.
     * Non-finite doubles have no JSON literal and emit null.
     */
    std::string toJson() const;

    /** Append toJson()'s bytes to @p out, with no temporary string. */
    void appendJson(std::string &out) const;

    /**
     * One-character alternative tag for serialization: 's' text,
     * 'd' real, 'i' signed integer, 'u' unsigned integer.
     */
    char typeTag() const;

    /**
     * Rebuild a cell from (typeTag(), toString()); round-trips every
     * cell exactly, alternative included. nullopt when @p text does
     * not parse under @p tag (or the tag is unknown).
     */
    static std::optional<Cell> fromTagged(char tag, std::string text);

  private:
    std::variant<std::string, double, std::int64_t, std::uint64_t>
        _value;
};

/** Column-labelled result rows with CSV/JSON writers. */
class ResultTable
{
  public:
    explicit ResultTable(std::vector<std::string> columns);

    /** Append one row; width must match the column count. */
    void addRow(std::vector<Cell> row);

    std::size_t rows() const { return _rows.size(); }
    std::size_t columns() const { return _columns.size(); }

    /** Column labels in declaration order. */
    const std::vector<std::string> &columnNames() const
    {
        return _columns;
    }

    /** Index of the column named @p name; nullopt when absent. */
    std::optional<std::size_t> findColumn(std::string_view name) const;

    /** Cell at (@p row, @p col); bounds panic. */
    const Cell &cell(std::size_t row, std::size_t col) const;

    /**
     * Stable-sort rows by the numeric value of column @p col, in the
     * requested direction; text and NaN cells sort after every number
     * either way.
     */
    void sortRowsByColumn(std::size_t col, bool descending);

    /** sortRowsByColumn(col, true). */
    void sortRowsByColumnDesc(std::size_t col);

    /** CSV with a header line; cells quoted when they need it. */
    void writeCsv(std::ostream &os) const;

    /** JSON array of {column: value} objects. */
    void writeJson(std::ostream &os) const;

    /** Write CSV to @p path; returns false on I/O failure. */
    bool writeCsvFile(const std::string &path) const;

    /** Write JSON to @p path; returns false on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

  private:
    std::vector<std::string> _columns;
    std::vector<std::vector<Cell>> _rows;
};

/** JSON string literal (quotes plus the mandatory escapes) for @p s. */
std::string jsonQuote(const std::string &s);

/**
 * Append jsonQuote(@p s) to @p out: the one JSON string escaper
 * (jsonQuote and Cell::toJson are wrappers over it).
 */
void appendJsonQuoted(std::string &out, std::string_view s);

/**
 * Render up to @p max_rows of @p table as a paper-style ASCII table,
 * dropping any column named in @p drop_columns (the wide "spec"
 * column, typically).
 */
AsciiTable toAsciiTable(const ResultTable &table,
                        std::size_t max_rows = std::size_t(-1),
                        const std::vector<std::string> &drop_columns = {});

} // namespace sweep
} // namespace qmh

#endif // QMH_SWEEP_EMIT_HH
