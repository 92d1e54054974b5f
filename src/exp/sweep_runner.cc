#include "exp/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exp/canonical.hh"
#include "sim/simulator.hh"

namespace fuse
{

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(threads, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 0; t + 1 < workers; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
}

unsigned
defaultThreadCount()
{
    // hardware_concurrency() is allowed to return 0 ("unknown"); clamp
    // so a sweep can never construct a zero-thread pool (regression-
    // guarded by test_exp's DefaultThreadCountIsAtLeastOne).
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace
{

/** One spec's result grid and its variants' materialised configurations
 *  (built up front, so the workers only read them). */
struct Grid
{
    explicit Grid(const ExperimentSpec &spec)
        : results(spec.name, spec.benchmarks, spec.kinds,
                  spec.variantLabels())
    {
        configs.reserve(spec.variantCount());
        for (std::size_t v = 0; v < spec.variantCount(); ++v)
            configs.push_back(spec.configFor(v));
    }

    ResultSet results;
    std::vector<SimConfig> configs;
};

/** Cell @c index (a flat grid index) of grid @c grid. */
struct Cell
{
    std::size_t grid;
    std::size_t index;
};

/** Simulate @p cells on @p threads workers, each into its own grid. */
void
simulate(std::vector<Grid> &grids, const std::vector<Cell> &cells,
         unsigned threads, const SweepRunner::Progress &progress)
{
    const std::size_t total = cells.size();
    std::size_t done = 0; // Guarded by progress_mutex.
    std::mutex progress_mutex;
    parallelFor(total, threads, [&](std::size_t c) {
        Grid &grid = grids[cells[c].grid];
        RunResult &run = grid.results.at(cells[c].index);
        Simulator sim(grid.configs[run.variant]);
        run.metrics = sim.run(run.benchmark, run.kind);
        run.valid = true;

        if (progress) {
            // Count under the same lock that serialises the callback so
            // 'done' values arrive strictly increasing.
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(run, ++done, total);
        }
    });
}

} // namespace

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads > 0 ? threads : defaultThreadCount())
{}

ResultSet
SweepRunner::run(const ExperimentSpec &spec) const
{
    return std::move(runAll({spec}).front());
}

std::vector<ResultSet>
SweepRunner::runAll(const std::vector<ExperimentSpec> &specs,
                    std::size_t *simulated) const
{
    std::vector<Grid> grids;
    grids.reserve(specs.size());
    for (const ExperimentSpec &spec : specs)
        grids.emplace_back(spec);

    // The first cell naming a point simulates it; each later cell naming
    // the same point is a copy of that first cell.
    std::unordered_map<std::string, Cell> first;
    std::vector<Cell> cells;
    std::vector<std::pair<Cell, Cell>> copies; // (to, from)
    for (std::size_t g = 0; g < specs.size(); ++g) {
        const ExperimentSpec &spec = specs[g];
        const ResultSet &results = grids[g].results;
        for (std::size_t b = 0; b < spec.benchmarks.size(); ++b)
            for (std::size_t v = 0; v < spec.variantCount(); ++v)
                for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
                    const Cell cell{g, results.index(b, v, k)};
                    const auto [it, fresh] = first.emplace(
                        canonicalSpecPoint(spec, b, v, k), cell);
                    if (fresh)
                        cells.push_back(cell);
                    else
                        copies.emplace_back(cell, it->second);
                }
    }

    simulate(grids, cells, threads_, progress_);
    for (const auto &[to, from] : copies) {
        RunResult &run = grids[to.grid].results.at(to.index);
        run.metrics = grids[from.grid].results.at(from.index).metrics;
        run.valid = true;
    }
    if (simulated)
        *simulated = cells.size();

    std::vector<ResultSet> results;
    results.reserve(grids.size());
    for (Grid &grid : grids)
        results.push_back(std::move(grid.results));
    return results;
}

} // namespace fuse
