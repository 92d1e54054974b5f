/**
 * @file
 * The paper's figures and tables as declarative experiments: each Figure
 * is one registry row that holds its grid as data (workloads, L1D kinds,
 * base preset, configuration variants) and a renderer that prints the
 * figure's tables, most of them through one workload-by-column table
 * printer with a MEAN or GMEAN row. `fuse_sweep --figure NAME` runs any
 * entry; `--list` prints the registry.
 */

#ifndef FUSE_EXP_FIGURES_HH
#define FUSE_EXP_FIGURES_HH

#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/result_set.hh"

namespace fuse
{

/** One paper figure/table: its grid and how to print it. */
struct Figure
{
    const char *name;   ///< Registry key, e.g. "fig13".
    const char *title;  ///< One-line description for --list.
    /** Print the tables. @p threads is the sweep's worker count, for
     *  renderers that fan out extra work (the trace studies). */
    void (*render)(const ResultSet &results, unsigned threads);
    /** A resolveBenchmarks() list; "" for a table that reads none. */
    const char *benchmarks;
    std::vector<L1DKind> kinds;          ///< Empty: nothing simulated.
    const char *base = "fermi";          ///< The base preset.
    std::vector<ConfigVariant> variants = {};

    /** The ExperimentSpec of this grid, named after the figure. */
    ExperimentSpec makeSpec() const;
};

/** Every reproducible figure/table, in paper order. */
const std::vector<Figure> &figures();

/** Look up a figure by name; nullptr when unknown. */
const Figure *findFigure(const std::string &name);

} // namespace fuse

#endif // FUSE_EXP_FIGURES_HH
