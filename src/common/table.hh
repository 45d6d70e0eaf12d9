/**
 * @file
 * ASCII table formatter used by the benchmark harnesses to print
 * paper-style tables (fixed columns, right-aligned numerics).
 */

#ifndef QMH_COMMON_TABLE_HH
#define QMH_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace qmh {

/** Column alignment. */
enum class Align { Left, Right };

/**
 * Shortest decimal form that parses back to the same double — the
 * single implementation behind both the sweep emitters and the
 * qmh::api spec printer (their exact-round-trip contracts must agree).
 */
std::string formatDoubleShortest(double v);

/**
 * Builds a table row by row, then renders it with column widths computed
 * from the content. Cells are strings; helpers format numerics.
 */
class AsciiTable
{
  public:
    /** Define the header row; the column count is fixed from here on. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Set alignment for one column (default Right). */
    void setAlign(std::size_t col, Align align);

    /** Optional caption printed above the table. */
    void setCaption(std::string caption) { _caption = std::move(caption); }

    /** Render to a stream. */
    void print(std::ostream &os) const;

    /** Format a double with @p digits significant decimal places. */
    static std::string num(double v, int digits = 2);

    /** Format an integer. */
    static std::string num(std::uint64_t v);

    /** Format a double in scientific notation, paper style (1.2e-3). */
    static std::string sci(double v, int digits = 1);

  private:
    std::string _caption;
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
    std::vector<Align> _align;
};

} // namespace qmh

#endif // QMH_COMMON_TABLE_HH
