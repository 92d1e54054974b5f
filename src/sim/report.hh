/**
 * @file
 * Table-rendering helpers shared by the figure renderers and the CLI:
 * fixed-width columns and number formatting so every figure prints the
 * same row/series layout the paper uses. The statistical aggregation
 * helpers (geomean, normalisation) live with the ResultSet in
 * exp/result_set.hh.
 */

#ifndef FUSE_SIM_REPORT_HH
#define FUSE_SIM_REPORT_HH

#include <string>
#include <vector>

namespace fuse
{

/** A printable table: header + rows of cells. */
class Report
{
  public:
    explicit Report(std::string title) : title_(std::move(title)) {}

    void header(std::vector<std::string> cells);
    void row(std::vector<std::string> cells);

    /** Render with aligned columns to stdout. */
    void print() const;

    const std::string &title() const { return title_; }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format @p v with @p precision decimals. */
std::string fmt(double v, int precision = 2);

} // namespace fuse

#endif // FUSE_SIM_REPORT_HH
