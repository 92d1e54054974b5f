/**
 * @file
 * The traced pass: spans around calls into each simulator layer, and the
 * per-layer metrics computed from those spans and from the components'
 * public StatGroups after Gpu::run.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

/** One named measurement as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What the traced pass measured. */
struct LayerReport
{
    /** The untraced pass the tracing overhead is measured against. */
    Pass untraced;
    /** Every per-layer metric, in a fixed order. */
    std::vector<Metric> metrics;
    std::map<std::string, LayerTime> layerTimes;
    std::size_t runs = 0;  ///< Simulations beyond the untraced pass.
    std::vector<std::string> failures;  ///< Failed output checks.
};

/**
 * Run an untraced and a traced pass of @p workload, then standalone
 * drives of the workload frontend, coalescer, every fig13 L1D
 * organisation and the memory hierarchy on each benchmark's decoded
 * stream. Single-run grids decompose each cell into Gpu construction,
 * Gpu::run and energy evaluation, alternating per cell which of the
 * untraced and traced runs goes first; the sweep runs SweepRunner
 * untraced, then traced, then decomposes every cell on the same number
 * of workers.
 */
LayerReport tracedLayers(const Workload &workload, const Grid &grid,
                         Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
