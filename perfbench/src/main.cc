/**
 * @file
 * perfbench: the repository benchmark. Links the simulator in-process,
 * runs one workload's grid for a fixed host-time budget, checks every
 * run's outputs, and prints the end-to-end metrics (or, with --trace 1,
 * the per-layer metrics of a traced pass) as one JSON line last.
 *
 * Usage:
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out FILE]
 *   perfbench --list
 *
 * See README.md next to this directory's CMakeLists.txt for what each
 * metric means and which layer it belongs to.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "layers.hh"
#include "trace.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;

/** Set-up is repeated this many times and reported as the median. */
constexpr int kSetupRepeats = 3;

/** The seed later gain claims must also hold on (never tuned against). */
constexpr std::uint64_t kHeldOutSeed = 7;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

void
usage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE]\n"
                 "       perfbench --list\n"
                 "  --seed N       workload seed (default 1; held-out "
                 "seed for claims: %llu)\n"
                 "  --seconds S    host seconds of timed passes "
                 "(at least one pass runs)\n"
                 "  --trace 1      traced pass: per-layer metrics\n"
                 "  --trace-out F  write the traced pass's spans to F\n",
                 static_cast<unsigned long long>(kHeldOutSeed));
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out) && out >= 0.0;
}

bool
parseSeed(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0' && text[0] != '-';
}

/** Parse argv; exits 2 on a usage error. */
Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const Workload &w : workloads())
                std::printf("%s\n", w.name);
            std::exit(0);
        }
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            std::exit(0);
        }
        if (i + 1 >= argc) {
            usage(stderr);
            std::exit(2);
        }
        const char *value = argv[++i];
        double number = 0.0;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--trace-out") {
            opt.traceOut = value;
        } else if (arg == "--seed" && parseSeed(value, opt.seed)) {
        } else if (arg == "--seconds" && parseNumber(value, number)) {
            opt.seconds = number;
        } else if (arg == "--trace" && parseNumber(value, number)) {
            opt.trace = number != 0.0;
        } else {
            std::fprintf(stderr, "perfbench: bad option %s %s\n",
                         arg.c_str(), value);
            usage(stderr);
            std::exit(2);
        }
    }
    if (!findWorkload(opt.workload)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s' (--list)\n",
                     opt.workload.c_str());
        std::exit(2);
    }
    return opt;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/** Output-check tally of one invocation. */
struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void run(const std::string &problem, const std::string &what)
    {
        ++attempted;
        fail(problem, what);
    }
    void fail(const std::string &problem, const std::string &what)
    {
        if (problem.empty())
            return;
        ++failed;
        std::fprintf(stderr, "perfbench: check failed: %s: %s\n",
                     what.c_str(), problem.c_str());
    }
};

std::string
cellName(const Grid &grid, std::size_t cell)
{
    return grid.benchmark(cell) + "/" + fuse::toString(grid.kind(cell));
}

/** Check every run of a pass, and its agreement with @p reference. */
void
checkPass(const Grid &grid, const Pass &pass, const Pass *reference,
          Checks &checks)
{
    for (std::size_t i = 0; i < grid.cells(); ++i) {
        std::string problem = checkRun(pass.metrics[i], grid.config);
        if (problem.empty() && reference
            && !bitIdentical(pass.metrics[i], reference->metrics[i]))
            problem = "differs from the first pass";
        checks.run(problem, cellName(grid, i));
    }
}

/** Re-run @p count cells directly; each must equal its pass result. */
void
recheck(const Grid &grid, const Pass &pass, std::size_t first,
        std::size_t count, Checks &checks)
{
    for (std::size_t j = 0; j < count; ++j) {
        const std::size_t cell = (first + j) % grid.cells();
        const fuse::Metrics again = runCell(grid, cell);
        checks.run(bitIdentical(again, pass.metrics[cell])
                       ? ""
                       : "direct Simulator::run differs from the pass",
                   cellName(grid, cell));
    }
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    bool finite = true;
    std::string json = "{\"correct\": ";
    std::string body;
    for (const Metric &m : metrics) {
        finite = finite && std::isfinite(m.value);
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        body += (body.empty() ? "" : ", ") + std::string("\"") + m.name
                + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit
                + "\"}";
    }
    json += (checks.failed == 0 && finite) ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted)
            + ", \"failed\": " + std::to_string(checks.failed)
            + ", \"metrics\": {" + body + "}}";
    std::printf("%s\n", json.c_str());
}

void
printTable(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point process_start = Clock::now();
    const Options opt = parse(argc, argv);
    const Workload &workload = *findWorkload(opt.workload);
    Checks checks;

    // Set-up: static tables, the preset and grid, and one untimed
    // warm-up run; the first repeat counts from process start.
    Grid grid;
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const Clock::time_point t0 = rep ? Clock::now() : process_start;
        grid = makeGrid(workload, opt.seed);
        const fuse::Metrics warm = runCell(grid, 0);
        setup_s.push_back(msSince(t0) / 1e3);
        checks.run(checkRun(warm, grid.config),
                   "warm-up " + cellName(grid, 0));
    }
    const std::size_t cells = grid.cells();
    const std::size_t rechecks = workload.sweep ? 2 : 1;
    std::printf("perfbench %s: %zu cells, seed %llu, %u SMs x %llu warp "
                "instructions\n",
                workload.name, cells,
                static_cast<unsigned long long>(opt.seed),
                grid.config.gpu.numSms,
                static_cast<unsigned long long>(
                    grid.config.gpu.instructionBudgetPerSm));

    if (opt.trace) {
        Tracer tracer;
        const LayerReport report = tracedLayers(workload, grid, tracer);
        const Pass &untraced = report.untraced;
        checkPass(grid, untraced, nullptr, checks);
        checks.attempted += report.runs;
        for (const std::string &f : report.failures)
            checks.fail(f, "traced pass");
        if (!opt.traceOut.empty()) {
            std::ofstream os(opt.traceOut);
            tracer.writeJson(os, workload.name, opt.seed);
            if (!os)
                checks.fail("cannot write " + opt.traceOut, "trace");
        }
        std::printf("self time per layer (%zu spans; untraced pass "
                    "%.1f ms):\n",
                    tracer.spans().size(), untraced.wallMs);
        for (const auto &[layer, t] : report.layerTimes)
            std::printf("  %-10s %6zu spans %12.3f ms total %12.3f ms self\n",
                        layer.c_str(), t.spans, t.totalMs, t.selfMs);
        std::printf("per-layer metrics:\n");
        printTable(report.metrics);
        printResult(checks, report.metrics);
        return 0;
    }

    // Timed passes: whole passes only, while the next one fits.
    std::vector<Pass> passes;
    const Clock::time_point measure_start = Clock::now();
    do {
        passes.push_back(runPass(workload, grid));
        const Pass &pass = passes.back();
        checkPass(grid, pass, passes.size() > 1 ? &passes.front() : nullptr,
                  checks);
        recheck(grid, pass, opt.seed + (passes.size() - 1) * rechecks,
                rechecks, checks);
    } while (msSince(measure_start) + passes.back().wallMs
             <= opt.seconds * 1e3);

    // Throughput over all passes: the host's speed wanders from pass to
    // pass, and the mean over every pass tracked it more steadily than
    // the median pass did.
    double wall_s = 0.0;
    double sim_cycles = 0.0;
    std::vector<double> run_ms;
    for (const Pass &pass : passes) {
        wall_s += pass.wallMs / 1e3;
        for (const fuse::Metrics &m : pass.metrics)
            sim_cycles += static_cast<double>(m.cycles);
        run_ms.insert(run_ms.end(), pass.runMs.begin(), pass.runMs.end());
    }
    const Fidelity fid = fidelity(grid, passes.front().metrics);
    const double failed_frac = static_cast<double>(checks.failed)
                               / static_cast<double>(checks.attempted);

    const std::vector<Metric> metrics = {
        {"runs_per_s", static_cast<double>(run_ms.size()) / wall_s, "1/s"},
        {"sim_mcycles_per_s", sim_cycles / wall_s / 1e6, "Mcycles/s"},
        {"run_ms_p50", median(run_ms), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(setup_s), "s"},
        {"ok_frac", 1.0 - failed_frac, "frac"},
        {"apki_gap", fid.apkiGap, "ln"},
        {"bypass_gap", fid.bypassGap, "frac"},
        {"fig13_gap", fid.fig13Gap, "ln"},
        {"offchip_gap", fid.offchipGap, "frac"},
    };
    std::printf("%zu passes of %zu runs (run_ms_p50 over %zu samples); "
                "failed_frac %.6g (%zu of %zu checked)\n",
                passes.size(), cells, run_ms.size(), failed_frac,
                checks.failed, checks.attempted);
    std::printf("pass wall ms:");
    for (const Pass &pass : passes)
        std::printf(" %.1f", pass.wallMs);
    std::printf("\nIPC GMEAN vs L1-SRAM:");
    for (const auto &[kind, g] : fid.gmeans)
        std::printf(" %s %.3f", fuse::toString(kind), g);
    std::printf("; pooled Dy-FUSE off-chip cut %.3f (paper 0.32)\n",
                fid.offchipCut);
    printTable(metrics);
    printResult(checks, metrics);
    return 0;
}
