#include "table.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "logging.hh"

namespace qmh {

std::string
formatDoubleShortest(double v)
{
    char buffer[32];
    const auto [end, ec] =
        std::to_chars(buffer, buffer + sizeof(buffer), v);
    if (ec != std::errc())
        qmh_panic("formatDoubleShortest: to_chars failed");
    return std::string(buffer, end);
}

void
AsciiTable::setHeader(std::vector<std::string> header)
{
    if (header.empty())
        qmh_panic("AsciiTable: header must have at least one column");
    _header = std::move(header);
    _align.assign(_header.size(), Align::Right);
}

void
AsciiTable::addRow(std::vector<std::string> row)
{
    if (_header.empty())
        qmh_panic("AsciiTable: setHeader() before addRow()");
    if (row.size() != _header.size())
        qmh_panic("AsciiTable: row width ", row.size(),
                  " != header width ", _header.size());
    _rows.push_back(std::move(row));
}

void
AsciiTable::setAlign(std::size_t col, Align align)
{
    if (col >= _align.size())
        qmh_panic("AsciiTable: bad column index ", col);
    _align[col] = align;
}

void
AsciiTable::print(std::ostream &os) const
{
    if (_header.empty())
        return;

    std::vector<std::size_t> widths(_header.size());
    for (std::size_t c = 0; c < _header.size(); ++c)
        widths[c] = _header[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_sep = [&] {
        os << '+';
        for (auto w : widths)
            os << std::string(w + 2, '-') << '+';
        os << '\n';
    };

    auto print_cells = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const auto pad = widths[c] - cells[c].size();
            os << ' ';
            if (_align[c] == Align::Right)
                os << std::string(pad, ' ') << cells[c];
            else
                os << cells[c] << std::string(pad, ' ');
            os << " |";
        }
        os << '\n';
    };

    if (!_caption.empty())
        os << _caption << '\n';
    print_sep();
    print_cells(_header);
    print_sep();
    for (const auto &row : _rows)
        print_cells(row);
    print_sep();
}

std::string
AsciiTable::num(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
AsciiTable::num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
AsciiTable::sci(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*e", digits, v);
    return buf;
}

} // namespace qmh
