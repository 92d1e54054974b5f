/**
 * @file
 * SweepRunner: executes an ExperimentSpec's (benchmark x variant x kind)
 * grid on a pool of worker threads. Every run is an independent
 * Simulator instance seeded purely from the spec, so an N-thread sweep
 * is bit-identical to a serial one — the workers only race for *which*
 * cell to simulate next, never for the cell's contents. runAll executes
 * several specs' grids in one pass and simulates the cells they share
 * once.
 */

#ifndef FUSE_EXP_SWEEP_RUNNER_HH
#define FUSE_EXP_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "exp/experiment.hh"
#include "exp/result_set.hh"

namespace fuse
{

/**
 * Run @p fn(i) for every i in [0, n) across @p threads workers (a value
 * of 0 or 1 runs inline). Tasks must be independent; the iteration order
 * across workers is unspecified.
 */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

/** Worker count: std::thread::hardware_concurrency, at least 1. */
unsigned defaultThreadCount();

class SweepRunner
{
  public:
    /** @param threads worker count; 0 picks defaultThreadCount(). */
    explicit SweepRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /** Called after each finished run with (result, done, total). May be
     *  invoked from any worker; calls are serialised internally. */
    using Progress =
        std::function<void(const RunResult &, std::size_t, std::size_t)>;
    void onProgress(Progress progress) { progress_ = std::move(progress); }

    /** Execute the grid and return the dense, ordered results: runAll
     *  of @p spec alone, so variants that materialise identically are
     *  one simulation. */
    ResultSet run(const ExperimentSpec &spec) const;

    /**
     * Execute the full grids of all @p specs in one pass on the pool and
     * return one ResultSet per spec, in order, each equal to run() of
     * that spec. Cells with equal canonicalSpecPoint text are one
     * simulation: the first such cell is simulated (progress counts
     * these cells only) and its Metrics are copied into the others.
     * @p simulated, when given, receives the number simulated.
     */
    std::vector<ResultSet> runAll(const std::vector<ExperimentSpec> &specs,
                                  std::size_t *simulated = nullptr) const;

  private:
    unsigned threads_ = 1;
    Progress progress_;
};

} // namespace fuse

#endif // FUSE_EXP_SWEEP_RUNNER_HH
