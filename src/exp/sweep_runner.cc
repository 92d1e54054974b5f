#include "exp/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "prof/prof.hh"
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
    // A malformed/zero/negative FUSE_THREADS falls through to the
    // hardware count rather than poisoning the pool size.
    if (const char *env = std::getenv("FUSE_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    // hardware_concurrency() is allowed to return 0 ("unknown"); clamp
    // so a sweep can never construct a zero-thread pool (regression-
    // guarded by test_exp's DefaultThreadCountIsAtLeastOne).
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::vector<std::size_t>
shardCells(std::size_t grid_size, std::size_t shard_index,
           std::size_t shard_count)
{
    if (shard_count == 0 || shard_index >= shard_count)
        fuse_fatal("invalid shard %zu/%zu (want 0 <= index < count)",
                   shard_index, shard_count);
    std::vector<std::size_t> cells;
    for (std::size_t i = shard_index; i < grid_size; i += shard_count)
        cells.push_back(i);
    return cells;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads > 0 ? threads : defaultThreadCount())
{}

ResultSet
SweepRunner::run(const ExperimentSpec &spec, std::size_t shard_index,
                 std::size_t shard_count) const
{
    return runCells(spec,
                    shardCells(spec.runCount(), shard_index, shard_count));
}

ResultSet
SweepRunner::runCells(const ExperimentSpec &spec,
                      const std::vector<std::size_t> &cells,
                      const CellDone &cell_done) const
{
    FUSE_PROF_SCOPE(exp, sweep);

    ResultSet results(spec.name, spec.benchmarks, spec.kinds,
                      spec.variantLabels());

    // Materialise every variant's configuration once, up front; the
    // workers then only read them.
    std::vector<SimConfig> configs;
    configs.reserve(spec.variantCount());
    for (std::size_t v = 0; v < spec.variantCount(); ++v)
        configs.push_back(spec.configFor(v));

    const std::size_t total = cells.size();
    std::size_t done = 0; // Guarded by progress_mutex.
    std::mutex progress_mutex;

    const std::size_t kinds = spec.kinds.size();
    const std::size_t variants = spec.variantCount();
    parallelFor(total, threads_, [&](std::size_t cell) {
        const std::size_t i = cells[cell];
        const std::size_t k = i % kinds;
        const std::size_t v = (i / kinds) % variants;
        const std::size_t b = i / (kinds * variants);

        Simulator sim(configs[v]);
        RunResult &run = results.at(i);
        run.benchmark = spec.benchmarks[b];
        run.kind = spec.kinds[k];
        run.variant = v;
        run.variantLabel = results.variantLabels()[v];
        run.metrics = sim.run(run.benchmark, run.kind);
        run.valid = true;
        if (cell_done)
            cell_done(run, i);

        if (progress_) {
            // Count under the same lock that serialises the callback so
            // 'done' values arrive strictly increasing.
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress_(run, ++done, total);
        }
    });
    return results;
}

} // namespace fuse
