/**
 * @file
 * Machine-readable result export: a named-metric registry over Metrics
 * plus CSV and JSON writers for a ResultSet (and matching minimal readers
 * for round-trip checks and post-processing scripts). Doubles are printed
 * with %.17g so a write/read cycle is value-exact.
 */

#ifndef FUSE_EXP_EXPORT_HH
#define FUSE_EXP_EXPORT_HH

#include <iosfwd>
#include <map>
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
    /** Inverse of get: writes the field back into a Metrics record (the
     *  merge CLI rebuilds full Metrics from shard exports with it). */
    void (*set)(Metrics &, double);
};

/** Every exported metric, in column order. */
const std::vector<MetricField> &metricFields();

/** Write @p results as CSV: benchmark,kind,variant,<metrics...>. */
void writeCsv(std::ostream &os, const ResultSet &results);

/** Write @p results as a JSON document with an array of run objects. */
void writeJson(std::ostream &os, const ResultSet &results);

/** A parsed export row, independent of the on-disk format. */
struct FlatRun
{
    std::string benchmark;
    std::string kind;
    std::string variantLabel;
    std::map<std::string, double> values;
};

/**
 * Rebuild a Metrics record from a parsed export row. Every field that
 * writeCsv/writeJson emit is restored exactly (doubles round-trip through
 * %.17g bit-for-bit), so tables rendered from merged shard exports match
 * the unsharded run byte for byte. Unknown value names are fatal.
 */
Metrics metricsFromFlat(const FlatRun &run);

/** Parse writeCsv output (fatal on malformed input). */
std::vector<FlatRun> readCsv(std::istream &is);

/** Parse writeJson output (fatal on malformed input). When
 *  @p experiment is non-null it receives the document's experiment
 *  name. */
std::vector<FlatRun> readJson(std::istream &is,
                              std::string *experiment = nullptr);

} // namespace fuse

#endif // FUSE_EXP_EXPORT_HH
