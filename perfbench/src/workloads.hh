/**
 * @file
 * The benchmark's four workloads, the untraced timed pass over each, the
 * output checks every simulated run must pass, and the fidelity gaps
 * against the paper's Table II and Fig. 13 reference values.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/result_set.hh"
#include "sim/metrics.hh"
#include "sim/sim_config.hh"
#include "trace.hh"

namespace perfbench
{

/** One workload: a (benchmark x organisation) grid on the Fermi preset. */
struct Workload
{
    const char *name;
    /** Benchmarks and kinds of the grid; the sweep takes fig13's. */
    std::vector<std::string> benchmarks;
    std::vector<fuse::L1DKind> kinds;
    /** Multiplier on the preset's per-SM instruction budget. */
    std::uint64_t budgetScale = 1;
    /** Run the grid through SweepRunner instead of one Simulator::run
     *  per cell. */
    bool sweep = false;
};

const std::vector<Workload> &workloads();

/** nullptr when @p name is not a workload. */
const Workload *findWorkload(const std::string &name);

/** A workload's materialised grid: cells are benchmark-major, then kind
 *  (the ResultSet flat order of a one-variant spec). */
struct Grid
{
    fuse::ExperimentSpec spec;
    fuse::SimConfig config;

    std::size_t cells() const
    {
        return spec.benchmarks.size() * spec.kinds.size();
    }
    const std::string &benchmark(std::size_t cell) const
    {
        return spec.benchmarks[cell / spec.kinds.size()];
    }
    fuse::L1DKind kind(std::size_t cell) const
    {
        return spec.kinds[cell % spec.kinds.size()];
    }
    /** Grid index of (benchmark, kind); cells() when absent. */
    std::size_t cellOf(const std::string &benchmark,
                       fuse::L1DKind kind) const;
};

/** Build @p workload's grid with every run seeded from @p seed. */
Grid makeGrid(const Workload &workload, std::uint64_t seed);

/** Sweep worker count: at most four, at most the host's CPUs. */
unsigned sweepWorkers();

/** One untraced pass over a grid. */
struct Pass
{
    std::vector<fuse::Metrics> metrics;  ///< Per cell, grid order.
    std::vector<double> runMs;           ///< Host ms per run.
    /** runPass only: each run's end (ms since start) and the start. */
    std::vector<double> endMs;
    Clock::time_point start;
    double wallMs = 0.0;
};

/** Run every cell once: through SweepRunner with sweepWorkers() workers
 *  for the sweep workload, else one Simulator::run per cell in grid
 *  order. */
Pass runPass(const Workload &workload, const Grid &grid);

/** Simulate one cell directly through Simulator::run. */
fuse::Metrics runCell(const Grid &grid, std::size_t cell);

/** Time a sweep pass spends with some workers idle: from the completion
 *  that leaves the first worker without a cell to the last completion. */
double sweepTailMs(const Pass &pass, unsigned workers);

/** "" when @p m is a complete, in-range run of @p config; else why not. */
std::string checkRun(const fuse::Metrics &m, const fuse::SimConfig &config);

/** Every exported metric plus cycles and instructions equal bit for bit. */
bool bitIdentical(const fuse::Metrics &a, const fuse::Metrics &b);

/** The simulated fidelity gaps of one grid (see README.md). */
struct Fidelity
{
    double apkiGap = 0.0;
    double bypassGap = 0.0;
    double fig13Gap = 0.0;
    double offchipGap = 0.0;  ///< Mean per-benchmark |cut - 0.32|.
    double offchipCut = 0.0;  ///< Pooled Dy-FUSE cut vs L1-SRAM.
    /** (kind, IPC GMEAN vs L1-SRAM) for each kind fig13Gap averaged. */
    std::vector<std::pair<fuse::L1DKind, double>> gmeans;
};

Fidelity fidelity(const Grid &grid, const std::vector<fuse::Metrics> &m);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
