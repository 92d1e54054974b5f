/**
 * @file
 * fuse_sweep: the experiment-orchestration CLI and the one way to run
 * the paper's figures and tables. Expresses any registered figure/table
 * (exp/figures.hh) as a declarative sweep, or runs a custom
 * ExperimentSpec file, fanning the (benchmark x variant x organisation)
 * grid across worker threads. Results can additionally be exported as
 * JSON or CSV.
 *
 * Usage:
 *   fuse_sweep --list
 *   fuse_sweep --figure fig13 [--threads N] [--json out.json]
 *   fuse_sweep --figure all [--threads N]   # every figure, one pass
 *   fuse_sweep --spec sweep.spec [--csv out.csv] [--quiet]
 *   fuse_sweep --spec - < sweep.spec
 *   fuse_sweep --merge shard1.json shard2.json ... [--json merged.json]
 *
 * Spec files (see exp/experiment.hh for the full key set):
 *   name: my_sweep
 *   base: fermi                 # fermi | volta | test
 *   benchmarks: sensitivity     # all | motivation | sensitivity | list
 *   kinds: L1-SRAM, Dy-FUSE     # all | toString(L1DKind) names
 *   seed: 1
 *   variant: half | l1d.sramAreaFraction=0.5
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
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
        "  --threads N       sweep worker threads, N >= 1 (default:\n"
        "                    FUSE_THREADS or all cores)\n"
        "  --shard I/N       run only grid cells I (1-based) of N: fan a\n"
        "                    campaign across machines, export each shard,\n"
        "                    merge offline (cells are seeded from the\n"
        "                    spec, so shard-and-merge == one big run)\n"
        "  --merge F1 F2 ..  merge N shard JSON exports (or one full\n"
        "                    --json export) back into the full grid and\n"
        "                    re-render the figure tables without\n"
        "                    simulating (use --json/--csv to re-export;\n"
        "                    the output is identical to an unsharded run)\n"
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

/** One parsed shard export. */
struct ShardFile
{
    std::string path;
    std::string experiment;
    std::vector<fuse::FlatRun> runs;
};

/**
 * Rebuild the full result grid from N shard exports. The grid shape comes
 * from the figure registry (the shards' experiment name) or from
 * @p spec_grid when the shards came from a --spec sweep; either way it is
 * restricted to the benchmarks/kinds/variants actually present across the
 * shards, so exports from --benchmarks-restricted campaigns merge too.
 * Every cell is placed through ResultSet::merge, which is fatal on
 * overlapping shards, and the rebuilt Metrics round-trip the export
 * format exactly — the merged tables and re-exports are byte-identical
 * to an unsharded run.
 */
fuse::ResultSet
mergeShards(const std::vector<std::string> &paths,
            const fuse::ExperimentSpec *spec_grid)
{
    if (paths.empty())
        fuse_fatal("--merge needs at least one shard export");

    std::vector<ShardFile> shards;
    for (const auto &path : paths) {
        std::ifstream is(path);
        if (!is)
            fuse_fatal("cannot read shard export '%s'", path.c_str());
        ShardFile shard;
        shard.path = path;
        shard.runs = fuse::readJson(is, &shard.experiment);
        shards.push_back(std::move(shard));
    }
    const std::string &name = shards.front().experiment;
    for (const auto &shard : shards) {
        if (shard.experiment != name)
            fuse_fatal("shard '%s' is from experiment '%s', expected '%s'",
                       shard.path.c_str(), shard.experiment.c_str(),
                       name.c_str());
    }

    fuse::ExperimentSpec spec;
    if (const fuse::Figure *fig = fuse::findFigure(name)) {
        spec = fig->makeSpec();
    } else if (spec_grid) {
        spec = *spec_grid;
    } else {
        fuse_fatal("experiment '%s' is not a figure; pass the original "
                   "--spec file alongside --merge to define the grid",
                   name.c_str());
    }

    // Restrict the spec grid to what the shards actually contain,
    // preserving the spec's order (the union over all shards of a
    // sharded campaign is exactly the grid the campaign swept).
    const auto contains = [&shards](auto pred) {
        for (const auto &shard : shards)
            for (const auto &run : shard.runs)
                if (pred(run))
                    return true;
        return false;
    };
    std::vector<std::string> benchmarks;
    for (const auto &b : spec.benchmarks) {
        if (contains([&](const fuse::FlatRun &r) { return r.benchmark == b; }))
            benchmarks.push_back(b);
    }
    std::vector<fuse::L1DKind> kinds;
    for (fuse::L1DKind k : spec.kinds) {
        const char *kn = toString(k);
        if (contains([&](const fuse::FlatRun &r) { return r.kind == kn; }))
            kinds.push_back(k);
    }
    std::vector<std::string> labels;
    for (const auto &label : spec.variantLabels()) {
        if (contains([&](const fuse::FlatRun &r) {
                return r.variantLabel == label;
            }))
            labels.push_back(label);
    }
    if (benchmarks.empty() || kinds.empty() || labels.empty())
        fuse_fatal("shard exports share no cells with the '%s' grid",
                   name.c_str());

    fuse::ResultSet merged(name, benchmarks, kinds, labels);
    for (const auto &shard : shards) {
        fuse::ResultSet piece(name, benchmarks, kinds, labels);
        for (const auto &run : shard.runs) {
            const auto b = std::find(benchmarks.begin(), benchmarks.end(),
                                     run.benchmark);
            const auto v = std::find(labels.begin(), labels.end(),
                                     run.variantLabel);
            fuse::L1DKind kind;
            if (!fuse::l1dKindFromString(run.kind, kind))
                fuse_fatal("shard '%s' has unknown L1D kind '%s'",
                           shard.path.c_str(), run.kind.c_str());
            const auto k = std::find(kinds.begin(), kinds.end(), kind);
            if (b == benchmarks.end() || k == kinds.end()
                || v == labels.end())
                fuse_fatal("shard '%s' row (%s, %s, '%s') is outside the "
                           "'%s' grid", shard.path.c_str(),
                           run.benchmark.c_str(), run.kind.c_str(),
                           run.variantLabel.c_str(), name.c_str());
            fuse::RunResult &cell = piece.at(piece.index(
                static_cast<std::size_t>(b - benchmarks.begin()),
                static_cast<std::size_t>(v - labels.begin()),
                static_cast<std::size_t>(k - kinds.begin())));
            cell.metrics = fuse::metricsFromFlat(run);
            cell.valid = true;
        }
        merged.merge(piece);
    }

    std::size_t filled = 0;
    for (const auto &run : merged.runs())
        filled += run.valid;
    std::fprintf(stderr, "%s: merged %zu shards into %zu/%zu cells\n",
                 name.c_str(), shards.size(), filled, merged.size());
    return merged;
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

/** Replace @p spec's workloads by the --benchmarks @p list, if given. */
void
restrictBenchmarks(fuse::ExperimentSpec &spec, const std::string &list)
{
    if (list.empty())
        return;
    spec.benchmarks.clear();
    for (const auto &word : fuse::splitList(list))
        for (const auto &name : fuse::ExperimentSpec::resolveBenchmarks(word))
            spec.benchmarks.push_back(name);
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

/** The --json / --csv exports of @p results (empty path: skipped). */
void
exportResults(const fuse::ResultSet &results, const std::string &json_path,
              const std::string &csv_path)
{
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
    std::string benchmarks;
    std::string kinds;
    std::string json_path;
    std::string csv_path;
    unsigned threads = 0;
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    bool quiet = false;
    bool merge = false;
    std::vector<std::string> merge_paths;

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
        } else if (arg == "--shard") {
            const fuse::Shard shard =
                fuse::parseShard("--shard", value().c_str());
            shard_index = shard.index;
            shard_count = shard.count;
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--csv") {
            csv_path = value();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--merge") {
            merge = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (merge && !arg.empty() && arg[0] != '-') {
            merge_paths.push_back(arg);
        } else {
            usage();
            fuse_fatal("unknown option '%s'", arg.c_str());
        }
    }

    if (merge) {
        // Merge mode simulates nothing: it stitches shard exports back
        // into the full grid and renders/exports like an unsharded run.
        // Sweep flags have nothing to act on here; dropping them
        // silently would export a grid the caller did not ask for.
        if (!figure.empty() || shard_count > 1 || !benchmarks.empty()
            || !kinds.empty())
            fuse_fatal("--merge takes shard files, not --figure/--shard/"
                       "--benchmarks/--kinds (the grid comes from the "
                       "shards themselves, and a merge simulates "
                       "nothing)");
        fuse::ExperimentSpec grid;
        if (!spec_path.empty())
            grid = readSpec(spec_path);
        fuse::ResultSet results =
            mergeShards(merge_paths, spec_path.empty() ? nullptr : &grid);
        if (!quiet) {
            // Renderers that fan out extra work (the trace studies) honor
            // the same --threads the sweep path would.
            const unsigned render_threads =
                threads ? threads : fuse::defaultThreadCount();
            if (const fuse::Figure *fig = fuse::findFigure(results.name()))
                fig->render(results, render_threads);
            else
                renderGeneric(results);
        }
        exportResults(results, json_path, csv_path);
        return 0;
    }

    if (figure.empty() == spec_path.empty()) {
        usage();
        fuse_fatal("pass exactly one of --figure or --spec");
    }
    if (!figure.empty() && !kinds.empty()) {
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
        // to export or shard; --merge re-renders one figure's export.
        if (shard_count > 1)
            fuse_fatal("--figure all does not take --shard");
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
    if (!kinds.empty()) {
        spec.kinds.clear();
        for (const auto &word : fuse::splitList(kinds))
            for (fuse::L1DKind k :
                 fuse::ExperimentSpec::resolveKinds(word))
                spec.kinds.push_back(k);
    }

    if (spec.runCount() > 0) {
        if (shard_count > 1)
            std::fprintf(stderr, "%s: shard %zu/%zu of %zu runs on %u "
                         "threads\n", spec.name.c_str(), shard_index + 1,
                         shard_count, spec.runCount(), runner.threads());
        else
            std::fprintf(stderr, "%s: %zu runs on %u threads\n",
                         spec.name.c_str(), spec.runCount(),
                         runner.threads());
    }
    const fuse::ResultSet results =
        runner.run(spec, shard_index, shard_count);

    if (!quiet) {
        if (fig && shard_count > 1)
            // Figure renderers assume the full grid; a shard only has
            // its slice, so hold the tables and let the exports carry it.
            std::fprintf(stderr, "shard %zu/%zu: skipping the figure "
                         "tables (merge the shard exports first)\n",
                         shard_index + 1, shard_count);
        else if (fig)
            fig->render(results, runner.threads());
        else
            renderGeneric(results);
    }
    exportResults(results, json_path, csv_path);
    return 0;
}
