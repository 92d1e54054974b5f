/**
 * @file
 * fuse_sweep: the experiment-orchestration CLI and the one way to run
 * the paper's figures and tables. Expresses any registered figure/table
 * (exp/figures.hh) as a declarative sweep, or runs a custom
 * ExperimentSpec file, fanning the (benchmark x variant x organisation)
 * grid across worker threads. Results can additionally be exported as
 * JSON or CSV, and --merge re-renders a JSON export without simulating.
 *
 * Usage:
 *   fuse_sweep --list
 *   fuse_sweep --figure fig13 [--threads N] [--json out.json]
 *   fuse_sweep --figure all [--threads N]   # every figure, one pass
 *   fuse_sweep --spec sweep.spec [--csv out.csv] [--quiet]
 *   fuse_sweep --spec - < sweep.spec
 *   fuse_sweep --merge fig13.json [--json again.json]
 *
 * Spec files (see exp/experiment.hh for the full key set):
 *   name: my_sweep
 *   base: fermi                 # fermi | volta | test
 *   benchmarks: sensitivity     # all | motivation | sensitivity | list
 *   kinds: L1-SRAM, Dy-FUSE     # all | toString(L1DKind) names
 *   seed: 1
 *   variant: half | l1d.sramAreaFraction=0.5
 */

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"
#include "sim/report.hh"

namespace
{

void
usage()
{
    std::printf(
        "usage: fuse_sweep [options]\n"
        "  --list            list the available figures/tables\n"
        "  --figure NAME     run a paper figure/table (e.g. fig13); 'all'\n"
        "                    runs every one in --list order in one pass,\n"
        "                    simulating each distinct cell once\n"
        "  --spec FILE       run an ExperimentSpec file ('-' = stdin)\n"
        "  --benchmarks LIST restrict to a comma-separated workload list\n"
        "  --kinds LIST      override the L1D kinds (spec mode)\n"
        "  --threads N       sweep worker threads, 1 <= N <= 4096\n"
        "                    (default: all cores)\n"
        "  --merge FILE      re-render one --json export without\n"
        "                    simulating: the grid is the export's own,\n"
        "                    and the tables and --json/--csv re-exports\n"
        "                    are identical to the run that wrote it\n"
        "  --json FILE       export results as JSON ('-' = stdout)\n"
        "  --csv FILE        export results as CSV ('-' = stdout)\n"
        "  --quiet           skip the rendered tables (exports only)\n"
        "  --keys            list the spec override keys and ranges\n");
}

void
listFigures()
{
    fuse::Report report("available figures");
    report.header({"name", "description"});
    for (const auto &fig : fuse::figures())
        report.row({fig.name, fig.title});
    report.print();
}

/** Render a generic metric table for spec-file sweeps. */
void
renderGeneric(const fuse::ResultSet &results)
{
    fuse::Report report("sweep: " + results.name());
    report.header({"workload", "kind", "variant", "IPC", "miss rate",
                   "APKI", "L1D energy (uJ)", "total energy (uJ)"});
    for (const auto &run : results.runs()) {
        if (!run.valid)
            continue;
        report.row({run.benchmark, toString(run.kind), run.variantLabel,
                    fuse::fmt(run.metrics.ipc, 3),
                    fuse::fmt(run.metrics.l1dMissRate, 3),
                    fuse::fmt(run.metrics.apki, 1),
                    fuse::fmt(run.metrics.energy.l1dTotal() / 1000.0, 1),
                    fuse::fmt(run.metrics.energy.total() / 1000.0, 1)});
    }
    report.print();
}

/** Parse the ExperimentSpec file at @p path ('-' = stdin). */
fuse::ExperimentSpec
readSpec(const std::string &path)
{
    std::stringstream buffer;
    if (path == "-") {
        buffer << std::cin.rdbuf();
    } else {
        std::ifstream is(path);
        if (!is)
            fuse_fatal("cannot read spec file '%s'", path.c_str());
        buffer << is.rdbuf();
    }
    return fuse::ExperimentSpec::parse(buffer.str());
}

/** Replace @p spec's workloads by the --benchmarks @p list, if given
 *  (fatal when it names none). */
void
restrictBenchmarks(fuse::ExperimentSpec &spec,
                   const std::optional<std::string> &list)
{
    if (list)
        spec.benchmarks = fuse::ExperimentSpec::resolveBenchmarks(*list);
}

/** Run @p write on the file at @p path ('-' = stdout). */
void
writeTo(const std::string &path,
        const std::function<void(std::ostream &)> &write)
{
    if (path == "-") {
        write(std::cout);
        return;
    }
    std::ofstream os(path);
    if (!os)
        fuse_fatal("cannot open '%s' for writing", path.c_str());
    write(os);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/**
 * Print @p results as @p fig's tables, or as the generic table when
 * @p fig is null, unless @p quiet; then write the --json / --csv
 * exports (empty path: skipped).
 */
void
present(const fuse::ResultSet &results, const fuse::Figure *fig,
        unsigned threads, bool quiet, const std::string &json_path,
        const std::string &csv_path)
{
    if (!quiet) {
        if (fig)
            fig->render(results, threads);
        else
            renderGeneric(results);
    }
    if (!json_path.empty())
        writeTo(json_path,
                [&](std::ostream &os) { fuse::writeJson(os, results); });
    if (!csv_path.empty())
        writeTo(csv_path,
                [&](std::ostream &os) { fuse::writeCsv(os, results); });
}

} // namespace

int
main(int argc, char **argv)
{
    std::string figure;
    std::string spec_path;
    // Given-but-empty lists are fatal, so "given" is tracked apart from
    // the value.
    std::optional<std::string> benchmarks;
    std::optional<std::string> kinds;
    std::string json_path;
    std::string csv_path;
    std::string merge_path;
    unsigned threads = 0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fuse_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--list") {
            listFigures();
            return 0;
        } else if (arg == "--keys") {
            for (const fuse::ConfigField &f : fuse::configFields())
                std::printf("%-30s %s\n", f.key, f.range().c_str());
            return 0;
        } else if (arg == "--figure") {
            figure = value();
        } else if (arg == "--spec") {
            spec_path = value();
        } else if (arg == "--benchmarks") {
            benchmarks = value();
        } else if (arg == "--kinds") {
            kinds = value();
        } else if (arg == "--threads") {
            threads = fuse::parseCount("--threads", value().c_str());
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--csv") {
            csv_path = value();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--merge") {
            merge_path = value();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fuse_fatal("unknown option '%s'", arg.c_str());
        }
    }

    if (!merge_path.empty()) {
        // Merge mode simulates nothing: it re-renders one export, whose
        // rows are its grid. The sweep flags have nothing to act on
        // here; dropping them silently would export a grid the caller
        // did not ask for.
        if (!figure.empty() || !spec_path.empty() || benchmarks || kinds)
            fuse_fatal("--merge takes no --figure, --spec, --benchmarks "
                       "or --kinds (the grid comes from the export, and "
                       "a merge simulates nothing)");
        std::ifstream is(merge_path);
        if (!is)
            fuse_fatal("cannot read export '%s'", merge_path.c_str());
        const fuse::ResultSet results = fuse::readJson(is);
        // Renderers that fan out extra work (the trace studies) honor
        // the same --threads the sweep path would.
        present(results, fuse::findFigure(results.name()),
                threads ? threads : fuse::defaultThreadCount(), quiet,
                json_path, csv_path);
        return 0;
    }

    if (figure.empty() == spec_path.empty()) {
        usage();
        fuse_fatal("pass exactly one of --figure or --spec");
    }
    if (!figure.empty() && kinds) {
        // Figure renderers expect their full kind grid; stripping kinds
        // would waste the sweep and then die in the renderer.
        fuse_fatal("--kinds only applies to --spec sweeps");
    }

    fuse::SweepRunner runner(threads);
    runner.onProgress([](const fuse::RunResult &run, std::size_t done,
                         std::size_t total) {
        std::fprintf(stderr, "  [%zu/%zu] %s %s %s\n", done, total,
                     run.benchmark.c_str(), toString(run.kind),
                     run.variantLabel.c_str());
    });

    if (figure == "all") {
        // One pass over the paper: the figures re-read each other's
        // cells, so each distinct cell is simulated once and the tables
        // are exactly the stand-alone runs'. A pass has no single grid
        // to export; --merge re-renders one figure's export.
        if (!json_path.empty())
            fuse_fatal("--figure all does not take --json");
        if (!csv_path.empty())
            fuse_fatal("--figure all does not take --csv");
        std::vector<fuse::ExperimentSpec> specs;
        std::size_t cells = 0;
        for (const auto &fig : fuse::figures()) {
            specs.push_back(fig.makeSpec());
            restrictBenchmarks(specs.back(), benchmarks);
            cells += specs.back().runCount();
        }
        std::size_t simulated = 0;
        const std::vector<fuse::ResultSet> results =
            runner.runAll(specs, &simulated);
        if (!quiet)
            for (std::size_t i = 0; i < results.size(); ++i)
                fuse::figures()[i].render(results[i], runner.threads());
        std::fprintf(stderr, "all: %zu cells, %zu simulated\n", cells,
                     simulated);
        return 0;
    }

    const fuse::Figure *fig = nullptr;
    fuse::ExperimentSpec spec;
    if (!figure.empty()) {
        fig = fuse::findFigure(figure);
        if (!fig)
            fuse_fatal("unknown figure '%s' (see --list)",
                       figure.c_str());
        spec = fig->makeSpec();
    } else {
        spec = readSpec(spec_path);
    }

    restrictBenchmarks(spec, benchmarks);
    if (kinds)
        spec.kinds = fuse::ExperimentSpec::resolveKinds(*kinds);

    if (spec.runCount() > 0)
        std::fprintf(stderr, "%s: %zu runs on %u threads\n",
                     spec.name.c_str(), spec.runCount(), runner.threads());
    present(runner.run(spec), fig, runner.threads(), quiet, json_path,
            csv_path);
    return 0;
}
