#include "emit.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>

#include "common/logging.hh"

namespace qmh {
namespace sweep {

namespace {

/** CSV cell: quote and double embedded quotes when needed. */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
appendJsonQuoted(std::string &out, std::string_view s)
{
    out += '"';
    // Characters that need no escape are copied in runs, not one by
    // one.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default: {
            static constexpr char hex[] = "0123456789abcdef";
            const char escape[] = {'\\', 'u', '0', '0', hex[c >> 4],
                                   hex[c & 0xF]};
            out.append(escape, sizeof escape);
        }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendJsonQuoted(out, s);
    return out;
}

std::string
Cell::toString() const
{
    if (const auto *text = std::get_if<std::string>(&_value))
        return *text;
    if (const auto *real = std::get_if<double>(&_value))
        return formatDoubleShortest(*real);
    if (const auto *wide = std::get_if<std::uint64_t>(&_value))
        return std::to_string(*wide);
    return std::to_string(std::get<std::int64_t>(_value));
}

std::optional<double>
Cell::asNumber() const
{
    if (const auto *real = std::get_if<double>(&_value))
        return *real;
    if (const auto *wide = std::get_if<std::uint64_t>(&_value))
        return static_cast<double>(*wide);
    if (const auto *narrow = std::get_if<std::int64_t>(&_value))
        return static_cast<double>(*narrow);
    return std::nullopt;
}

char
Cell::typeTag() const
{
    if (std::holds_alternative<std::string>(_value))
        return 's';
    if (std::holds_alternative<double>(_value))
        return 'd';
    if (std::holds_alternative<std::int64_t>(_value))
        return 'i';
    return 'u';
}

std::optional<Cell>
Cell::fromTagged(char tag, std::string text)
{
    // Strict full-consumption parsing, like api::parseInt and
    // friends (which live above this layer): trailing garbage means
    // a corrupt serialization, never a silent zero.
    const char *first = text.data();
    const char *last = text.data() + text.size();
    switch (tag) {
    case 's':
        return Cell(std::move(text));
    case 'd': {
        double v = 0.0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec != std::errc() || ptr != last)
            return std::nullopt;
        return Cell(v);
    }
    case 'i': {
        std::int64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec != std::errc() || ptr != last)
            return std::nullopt;
        return Cell(v);
    }
    case 'u': {
        std::uint64_t v = 0;
        const auto [ptr, ec] = std::from_chars(first, last, v);
        if (ec != std::errc() || ptr != last)
            return std::nullopt;
        return Cell(v);
    }
    default:
        return std::nullopt;
    }
}

std::string
Cell::toJson() const
{
    std::string out;
    appendJson(out);
    return out;
}

void
Cell::appendJson(std::string &out) const
{
    if (const auto *text = std::get_if<std::string>(&_value)) {
        appendJsonQuoted(out, *text);
        return;
    }
    // Shortest round-trip digits, as toString() writes them; 32 bytes
    // hold any double or 64-bit integer.
    char buffer[32];
    std::to_chars_result written{};
    if (const auto *real = std::get_if<double>(&_value)) {
        // JSON has no literal for inf/nan; a bare token would make
        // the whole document unparseable, so emit null.
        if (!std::isfinite(*real)) {
            out += "null";
            return;
        }
        written = std::to_chars(buffer, buffer + sizeof buffer, *real);
    } else if (const auto *wide = std::get_if<std::uint64_t>(&_value)) {
        written = std::to_chars(buffer, buffer + sizeof buffer, *wide);
    } else {
        written = std::to_chars(buffer, buffer + sizeof buffer,
                                std::get<std::int64_t>(_value));
    }
    out.append(buffer, written.ptr);
}

ResultTable::ResultTable(std::vector<std::string> columns)
    : _columns(std::move(columns))
{
    if (_columns.empty())
        qmh_panic("ResultTable needs at least one column");
}

void
ResultTable::addRow(std::vector<Cell> row)
{
    if (row.size() != _columns.size())
        qmh_panic("ResultTable row width ", row.size(),
                  " != column count ", _columns.size());
    _rows.push_back(std::move(row));
}

std::optional<std::size_t>
ResultTable::findColumn(std::string_view name) const
{
    for (std::size_t c = 0; c < _columns.size(); ++c)
        if (_columns[c] == name)
            return c;
    return std::nullopt;
}

const Cell &
ResultTable::cell(std::size_t row, std::size_t col) const
{
    if (row >= _rows.size() || col >= _columns.size())
        qmh_panic("ResultTable::cell(", row, ", ", col,
                  ") out of bounds for ", _rows.size(), "x",
                  _columns.size());
    return _rows[row][col];
}

void
ResultTable::sortRowsByColumn(std::size_t col, bool descending)
{
    if (col >= _columns.size())
        qmh_panic("ResultTable::sortRowsByColumn: column ", col,
                  " out of bounds for ", _columns.size());
    // Text and NaN cells always rank after the numbers (NaN in the
    // comparator itself would break strict weak ordering — UB in
    // stable_sort — so it is mapped to the worst rank up front).
    const double worst = descending
                             ? -std::numeric_limits<double>::infinity()
                             : std::numeric_limits<double>::infinity();
    auto rank = [col, worst](const std::vector<Cell> &row) {
        const auto number = row[col].asNumber();
        return number && !std::isnan(*number) ? *number : worst;
    };
    std::stable_sort(_rows.begin(), _rows.end(),
                     [&rank, descending](const auto &a, const auto &b) {
                         return descending ? rank(a) > rank(b)
                                           : rank(a) < rank(b);
                     });
}

void
ResultTable::sortRowsByColumnDesc(std::size_t col)
{
    sortRowsByColumn(col, true);
}

void
ResultTable::writeCsv(std::ostream &os) const
{
    for (std::size_t c = 0; c < _columns.size(); ++c)
        os << (c ? "," : "") << csvEscape(_columns[c]);
    os << '\n';
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            os << (c ? "," : "") << csvEscape(row[c].toString());
        os << '\n';
    }
}

void
ResultTable::writeJson(std::ostream &os) const
{
    os << "[\n";
    for (std::size_t r = 0; r < _rows.size(); ++r) {
        os << "  {";
        for (std::size_t c = 0; c < _columns.size(); ++c) {
            os << (c ? ", " : "") << jsonQuote(_columns[c]) << ": "
               << _rows[r][c].toJson();
        }
        os << (r + 1 < _rows.size() ? "},\n" : "}\n");
    }
    os << "]\n";
}

bool
ResultTable::writeCsvFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeCsv(os);
    return static_cast<bool>(os);
}

bool
ResultTable::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    writeJson(os);
    return static_cast<bool>(os);
}

AsciiTable
toAsciiTable(const ResultTable &table, std::size_t max_rows,
             const std::vector<std::string> &drop_columns)
{
    std::vector<std::size_t> keep;
    for (std::size_t c = 0; c < table.columns(); ++c) {
        const auto &name = table.columnNames()[c];
        if (std::find(drop_columns.begin(), drop_columns.end(),
                      name) == drop_columns.end())
            keep.push_back(c);
    }

    AsciiTable ascii;
    std::vector<std::string> header;
    for (const auto c : keep)
        header.push_back(table.columnNames()[c]);
    ascii.setHeader(std::move(header));
    for (std::size_t out = 0; out < keep.size(); ++out)
        if (table.rows() &&
            table.cell(0, keep[out]).isText())
            ascii.setAlign(out, Align::Left);

    const std::size_t show = std::min(max_rows, table.rows());
    for (std::size_t r = 0; r < show; ++r) {
        std::vector<std::string> row;
        for (const auto c : keep) {
            const auto &value = table.cell(r, c);
            // Shortest-round-trip doubles are exact but unreadable in
            // a report; four decimals is plenty here.
            if (value.isReal() &&
                std::isfinite(*value.asNumber()))
                row.push_back(
                    AsciiTable::num(*value.asNumber(), 4));
            else
                row.push_back(value.toString());
        }
        ascii.addRow(std::move(row));
    }
    return ascii;
}

} // namespace sweep
} // namespace qmh
