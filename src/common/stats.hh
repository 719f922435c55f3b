/**
 * @file
 * Lightweight statistics utilities: scalar summaries and aligned table
 * printing for the benchmark harness output.
 */

#ifndef CICERO_COMMON_STATS_HH
#define CICERO_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cicero {

/**
 * Running scalar summary (count / mean / min / max / stddev) used for
 * per-frame metrics such as warp ratios and PSNR.
 */
class Summary
{
  public:
    void add(double v);

    std::uint64_t count() const { return _n; }
    double mean() const { return _n ? _sum / _n : 0.0; }
    double min() const { return _min; }
    double max() const { return _max; }
    double stddev() const;
    double sum() const { return _sum; }

  private:
    std::uint64_t _n = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = 1e300;
    double _max = -1e300;
};

/**
 * A fixed-column text table that prints the rows/series of a paper figure
 * in aligned columns. Cells are strings; convenience adders format
 * numbers with a sensible precision.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Begin a new row; subsequent cell() calls fill it left to right. */
    Table &row();

    Table &cell(const std::string &s);
    Table &cell(double v, int precision = 2);
    Table &cell(std::uint64_t v);
    Table &cell(int v);

    /** Render the table with a separator under the header. */
    std::string str() const;

    /** Print to stdout. */
    void print() const;

  private:
    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
};

/** Format @p v with @p precision digits after the decimal point. */
std::string formatDouble(double v, int precision = 2);

/** Format a byte count with a human-readable suffix (KB/MB/GB). */
std::string formatBytes(double bytes);

} // namespace cicero

#endif // CICERO_COMMON_STATS_HH
