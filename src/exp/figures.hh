/**
 * @file
 * The paper's figures and tables as declarative experiments: each Figure
 * pairs an ExperimentSpec factory with a renderer that prints the
 * figure's table layout. `fuse_sweep --figure NAME` runs any entry;
 * `--list` prints the registry.
 */

#ifndef FUSE_EXP_FIGURES_HH
#define FUSE_EXP_FIGURES_HH

#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/result_set.hh"

namespace fuse
{

/** One paper figure/table: how to run it and how to print it. */
struct Figure
{
    const char *name;   ///< Registry key, e.g. "fig13".
    const char *title;  ///< One-line description for --list.
    ExperimentSpec (*makeSpec)();
    /** Print the tables. @p threads is the sweep's worker count, for
     *  renderers that fan out extra work (the trace studies). */
    void (*render)(const ResultSet &results, unsigned threads);
};

/** Every reproducible figure/table, in paper order. */
const std::vector<Figure> &figures();

/** Look up a figure by name; nullptr when unknown. */
const Figure *findFigure(const std::string &name);

} // namespace fuse

#endif // FUSE_EXP_FIGURES_HH
