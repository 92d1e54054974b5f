/**
 * @file
 * Machine-readable result export: a named-metric registry over Metrics,
 * CSV and JSON writers for a ResultSet, and the JSON reader that
 * `fuse_sweep --merge` re-renders an export through. Doubles are printed
 * with %.17g so a write/read cycle is value-exact.
 */

#ifndef FUSE_EXP_EXPORT_HH
#define FUSE_EXP_EXPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/result_set.hh"

namespace fuse
{

/** One exportable scalar of a Metrics record. */
struct MetricField
{
    const char *name;
    double (*get)(const Metrics &);
    /** Inverse of get: writes the field back into a Metrics record
     *  (readJson rebuilds each row's Metrics with it). */
    void (*set)(Metrics &, double);
    /** An integer count: readJson takes only whole numbers in
     *  [0, 2^64) for it. */
    bool count = false;
};

/** Every exported metric, in column order. */
const std::vector<MetricField> &metricFields();

/** Write @p results as CSV: benchmark,kind,variant,<metrics...>. */
void writeCsv(std::ostream &os, const ResultSet &results);

/** Write @p results as a JSON document with an array of run objects. */
void writeJson(std::ostream &os, const ResultSet &results);

/**
 * Read a writeJson export back into its ResultSet. The export is its
 * own grid: each axis holds its values in order of first appearance,
 * and row i must be cell i of that grid in flat order, with every
 * metricFields() entry once, in column order. Anything else is fatal:
 * malformed or trailing text, an unknown kind, a dropped, repeated or
 * reordered row, a missing, repeated or unknown metric, or a count
 * that is not a whole number in [0, 2^64). Doubles round-trip through
 * %.17g bit for bit, so tables rendered from the result, and its
 * re-export, match the run that wrote it byte for byte.
 */
ResultSet readJson(std::istream &is);

} // namespace fuse

#endif // FUSE_EXP_EXPORT_HH
