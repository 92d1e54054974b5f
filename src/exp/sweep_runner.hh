/**
 * @file
 * SweepRunner: executes an ExperimentSpec's (benchmark x variant x kind)
 * grid on a pool of worker threads. Every run is an independent
 * Simulator instance seeded purely from the spec, so an N-thread sweep
 * is bit-identical to a serial one — the workers only race for *which*
 * cell to simulate next, never for the cell's contents.
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

/** Worker count from FUSE_THREADS, else std::thread::hardware_concurrency. */
unsigned defaultThreadCount();

/**
 * The flat grid indices of shard @p shard_index of @p shard_count over a
 * grid of @p grid_size cells: every index congruent to @p shard_index
 * mod @p shard_count (round-robin, so every shard gets a balanced
 * benchmark mix). Fatal on an invalid shard.
 */
std::vector<std::size_t> shardCells(std::size_t grid_size,
                                    std::size_t shard_index,
                                    std::size_t shard_count);

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

    /**
     * Execute the grid and return the dense, ordered results. With
     * @p shard_count > 1 only shardCells(..., @p shard_index,
     * @p shard_count) are simulated; the other cells stay invalid.
     * Because every run is seeded purely from the spec, merging the N
     * shard ResultSets reproduces the unsharded sweep cell for cell (see
     * ResultSet::merge).
     */
    ResultSet run(const ExperimentSpec &spec, std::size_t shard_index = 0,
                  std::size_t shard_count = 1) const;

    /** Called on the worker thread with each simulated cell and its flat
     *  index, concurrently across workers. */
    using CellDone = std::function<void(const RunResult &, std::size_t)>;

    /**
     * Simulate exactly the grid cells whose flat indices (see
     * ResultSet::index) are listed in @p cells; every other cell of the
     * returned grid stays invalid. Progress counts these cells only.
     */
    ResultSet runCells(const ExperimentSpec &spec,
                       const std::vector<std::size_t> &cells,
                       const CellDone &cell_done = {}) const;

  private:
    unsigned threads_ = 1;
    Progress progress_;
};

} // namespace fuse

#endif // FUSE_EXP_SWEEP_RUNNER_HH
