#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using fuse::L1DKind;

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"mem_read_worm",
         {"GEMM", "SYR2K", "SM", "ATAX"},
         {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::FaFuse, L1DKind::DyFuse},
         1, false},
        {"mem_write_wm",
         {"2MM", "PVC", "PVR", "histo"},
         {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::Hybrid,
          L1DKind::BaseFuse, L1DKind::DyFuse},
         1, false},
        {"compute_bound",
         {"pathf", "mri-g", "cfd", "srad_v1"},
         {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::DyFuse},
         4, false},
        {"fig13_sweep", {}, {}, 1, true},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::size_t
Grid::cellOf(const std::string &benchmark, L1DKind kind) const
{
    const auto b = std::find(spec.benchmarks.begin(), spec.benchmarks.end(),
                             benchmark);
    const auto k = std::find(spec.kinds.begin(), spec.kinds.end(), kind);
    if (b == spec.benchmarks.end() || k == spec.kinds.end())
        return cells();
    return static_cast<std::size_t>(b - spec.benchmarks.begin())
               * spec.kinds.size()
           + static_cast<std::size_t>(k - spec.kinds.begin());
}

Grid
makeGrid(const Workload &workload, std::uint64_t seed)
{
    Grid grid;
    if (workload.sweep) {
        grid.spec = fuse::findFigure("fig13")->makeSpec();
    } else {
        grid.spec.name = workload.name;
        grid.spec.base = "fermi";
        grid.spec.benchmarks = workload.benchmarks;
        grid.spec.kinds = workload.kinds;
    }
    grid.spec.seed = seed;
    grid.config = grid.spec.configFor(0);
    grid.config.gpu.instructionBudgetPerSm *= workload.budgetScale;
    return grid;
}

unsigned
sweepWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(4u, hw));
}

fuse::Metrics
runCell(const Grid &grid, std::size_t cell)
{
    fuse::Simulator sim(grid.config);
    return sim.run(grid.benchmark(cell), grid.kind(cell));
}

Pass
runPass(const Workload &workload, const Grid &grid)
{
    Pass pass;
    const std::size_t n = grid.cells();
    pass.metrics.resize(n);
    pass.runMs.resize(n);
    pass.endMs.resize(n);
    const Clock::time_point start = Clock::now();
    pass.start = start;
    if (workload.sweep) {
        // A cell's host time runs from its worker's previous completion
        // (or the pass start) to its own; SweepRunner serialises the
        // callback, so the map needs no lock of its own.
        std::map<std::thread::id, Clock::time_point> last;
        fuse::SweepRunner runner(sweepWorkers());
        runner.onProgress([&](const fuse::RunResult &run, std::size_t,
                              std::size_t) {
            const Clock::time_point now = Clock::now();
            const auto it =
                last.emplace(std::this_thread::get_id(), start).first;
            const std::size_t cell = grid.cellOf(run.benchmark, run.kind);
            if (cell < n) {
                pass.runMs[cell] = msBetween(it->second, now);
                pass.endMs[cell] = msBetween(start, now);
            }
            it->second = now;
        });
        const fuse::ResultSet results = runner.run(grid.spec);
        for (std::size_t i = 0; i < n; ++i)
            pass.metrics[i] = results.at(i).metrics;
    } else {
        fuse::Simulator sim(grid.config);
        for (std::size_t i = 0; i < n; ++i) {
            const Clock::time_point t0 = Clock::now();
            pass.metrics[i] = sim.run(grid.benchmark(i), grid.kind(i));
            pass.runMs[i] = msSince(t0);
            pass.endMs[i] = msSince(start);
        }
    }
    pass.wallMs = msSince(start);
    return pass;
}

double
sweepTailMs(const Pass &pass, unsigned workers)
{
    if (pass.endMs.empty())
        return 0.0;
    std::vector<double> t = pass.endMs;
    std::sort(t.begin(), t.end());
    // Completion k (1-based) hands its worker cell W + k; once k exceeds
    // N - W there is nothing left to hand out and that worker idles.
    const std::size_t n = t.size();
    const std::size_t first_idle = n > workers ? n - workers : 0;
    return t.back() - t[first_idle];
}

std::string
checkRun(const fuse::Metrics &m, const fuse::SimConfig &config)
{
    const std::uint64_t expected = static_cast<std::uint64_t>(
                                       config.gpu.numSms)
                                   * config.gpu.instructionBudgetPerSm;
    if (m.instructions != expected) {
        return "retired " + std::to_string(m.instructions) + " of "
               + std::to_string(expected) + " warp instructions";
    }
    if (m.cycles == 0 || m.cycles >= config.gpu.maxCycles)
        return "ran " + std::to_string(m.cycles) + " cycles (cap "
               + std::to_string(config.gpu.maxCycles) + ")";
    for (const fuse::MetricField &f : fuse::metricFields()) {
        const double v = f.get(m);
        if (!std::isfinite(v) || v < 0.0)
            return std::string(f.name) + " = " + std::to_string(v);
    }
    const std::pair<const char *, double> fractions[] = {
        {"ipc", m.ipc},
        {"l1d_miss_rate", m.l1dMissRate},
        {"bypass_ratio", m.bypassRatio},
        {"pred_true", m.predTrue},
        {"pred_false", m.predFalse},
        {"pred_neutral", m.predNeutral},
        {"mem_wait_fraction", m.memWaitFraction},
        {"network_share", m.networkShare},
        {"dram_share", m.dramShare},
    };
    for (const auto &[name, v] : fractions) {
        if (v > 1.0)
            return std::string(name) + " = " + std::to_string(v) + " > 1";
    }
    if (m.ipc <= 0.0 || m.energy.total() <= 0.0)
        return "zero IPC or energy";
    return "";
}

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

bool
bitIdentical(const fuse::Metrics &a, const fuse::Metrics &b)
{
    if (a.benchmark != b.benchmark || a.l1dKind != b.l1dKind
        || a.cycles != b.cycles || a.instructions != b.instructions
        || !sameBits(a.predOutcomes, b.predOutcomes))
        return false;
    for (const fuse::MetricField &f : fuse::metricFields()) {
        if (!sameBits(f.get(a), f.get(b)))
            return false;
    }
    return true;
}

Fidelity
fidelity(const Grid &grid, const std::vector<fuse::Metrics> &m)
{
    Fidelity fid;
    const auto &benchmarks = grid.spec.benchmarks;
    const auto &kinds = grid.spec.kinds;
    const auto metrics = [&](const std::string &b,
                             L1DKind k) -> const fuse::Metrics & {
        return m[grid.cellOf(b, k)];
    };
    const auto has = [&](L1DKind k) {
        return std::find(kinds.begin(), kinds.end(), k) != kinds.end();
    };

    // Table II: APKI is per kilo *thread* instruction, Metrics::apki per
    // kilo warp instruction.
    for (const std::string &b : benchmarks) {
        const fuse::BenchmarkSpec &spec = fuse::benchmarkByName(b);
        const fuse::Metrics &nvm = metrics(b, L1DKind::ByNvm);
        fid.apkiGap += std::fabs(
            std::log(nvm.apki / fuse::kWarpSize / spec.apki));
        fid.bypassGap +=
            std::fabs(nvm.bypassRatio - spec.publishedBypassRatio);
    }
    fid.apkiGap /= static_cast<double>(benchmarks.size());
    fid.bypassGap /= static_cast<double>(benchmarks.size());

    // Fig. 13 GMEAN IPC vs L1-SRAM, over the kinds this grid runs.
    const std::pair<L1DKind, double> paper[] = {
        {L1DKind::ByNvm, 1.6},   {L1DKind::Hybrid, 0.77},
        {L1DKind::BaseFuse, 0.86}, {L1DKind::FaFuse, 2.6},
        {L1DKind::DyFuse, 3.17},
    };
    for (const auto &[kind, target] : paper) {
        if (!has(kind))
            continue;
        std::vector<double> ratios;
        for (const std::string &b : benchmarks) {
            ratios.push_back(metrics(b, kind).ipc
                             / metrics(b, L1DKind::L1Sram).ipc);
        }
        const double g = fuse::geomean(ratios);
        fid.gmeans.emplace_back(kind, g);
        fid.fig13Gap += std::fabs(std::log(g / target));
    }
    if (!fid.gmeans.empty())
        fid.fig13Gap /= static_cast<double>(fid.gmeans.size());

    // The paper's headline: Dy-FUSE cuts outgoing references by 32%. The
    // gap averages each benchmark's distance from it: the distance of
    // the pooled cut alone sits near zero, where a seed's noise is most
    // of its value.
    double dy_total = 0.0;
    double sram_total = 0.0;
    for (const std::string &b : benchmarks) {
        const double dy = static_cast<double>(
            metrics(b, L1DKind::DyFuse).offchipRequests);
        const double sram = static_cast<double>(
            metrics(b, L1DKind::L1Sram).offchipRequests);
        fid.offchipGap += std::fabs(1.0 - dy / sram - 0.32);
        dy_total += dy;
        sram_total += sram;
    }
    fid.offchipGap /= static_cast<double>(benchmarks.size());
    fid.offchipCut = 1.0 - dy_total / sram_total;
    return fid;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace perfbench
