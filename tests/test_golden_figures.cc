/**
 * @file
 * Golden-figure checksum regression tier. Runs a reduced-budget subset of
 * every paper figure's sweep grid through SweepRunner, figure by figure
 * and in one runAll pass, and compares an FNV-1a hash of each canonical
 * JSON export against checksums committed in
 * tests/goldens/figure_checksums.txt. A second tier renders every
 * registry entry from its reduced grid (the trace studies over the same
 * first three workloads) and compares the hash of the printed text
 * against tests/goldens/rendered_checksums.txt, so a renderer cannot
 * drift by a byte. The static tables simulate nothing, so
 * figure_checksums.txt pins them (table1, table3) by that same text.
 *
 * The goldens were generated from the pre-refactor scan-based replacement
 * engine, so any observational-equivalence break in victim selection, MSHR
 * retirement, or sweep plumbing fails here — in ctest, not in figure
 * review. Regenerate (only after deliberately changing simulated
 * behaviour or a figure's layout) with:
 *
 *     FUSE_UPDATE_GOLDENS=1 ./test_golden_figures
 *
 * The hashes cover raw metric bit patterns (%.17g), so they are pinned to
 * one platform/compiler configuration, the one CI builds with. That
 * strictness is the point: byte-identical means byte-identical.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"

#ifndef FUSE_REPO_DIR
#error "FUSE_REPO_DIR must point at the repository source directory"
#endif

namespace fuse
{
namespace
{

const char *const kGridGoldens =
    FUSE_REPO_DIR "/tests/goldens/figure_checksums.txt";
const char *const kRenderedGoldens =
    FUSE_REPO_DIR "/tests/goldens/rendered_checksums.txt";

/** figure name -> FNV-1a checksum (hex), the form of a golden file. */
using Checksums = std::map<std::string, std::string>;

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** The tables that simulate nothing: figure_checksums.txt pins them by
 *  their rendered text, as rendered_checksums.txt does. */
const std::set<std::string> kStaticTables = {"table1", "table3"};

/**
 * The figure's spec cut down to golden-tier cost: the first three
 * workloads and a reduced per-SM instruction budget (scaled down further
 * for the 84-SM Volta study). Everything else — kinds, variants, seed —
 * stays exactly as the figure defines it, so the golden still walks the
 * full replacement/MSHR/approximation machinery of every organisation.
 * A trace study keeps only the workload cut.
 */
ExperimentSpec
reducedSpec(const Figure &fig)
{
    ExperimentSpec spec = fig.makeSpec();
    if (spec.benchmarks.size() > 3)
        spec.benchmarks.resize(3);
    if (spec.runCount() == 0)
        return spec; // Static table / trace study: nothing to sweep.
    const double budget = spec.base == "volta" ? 750.0 : 3000.0;
    if (spec.variants.empty())
        spec.variants.push_back({"", {}});
    for (auto &variant : spec.variants)
        variant.overrides.push_back({"gpu.instructionBudgetPerSm", budget});
    return spec;
}

/** Every figure with a sweep grid, reduced (static tables and trace
 *  studies have no grid to check). */
std::vector<ExperimentSpec>
reducedSpecs()
{
    std::vector<ExperimentSpec> specs;
    for (const auto &fig : figures()) {
        ExperimentSpec spec = reducedSpec(fig);
        if (spec.runCount() > 0)
            specs.push_back(std::move(spec));
    }
    return specs;
}

/** figure name -> checksum of the grid's canonical JSON. */
Checksums
checksums(const std::vector<ResultSet> &grids)
{
    Checksums sums;
    for (const ResultSet &results : grids) {
        std::stringstream json;
        writeJson(json, results);
        sums[results.name()] = hex(fnv1a(json.str()));
    }
    return sums;
}

/** Each reduced grid swept on its own, as `fuse_sweep --figure` does. */
Checksums
computeChecksums()
{
    const SweepRunner runner(1);
    std::vector<ResultSet> grids;
    for (const ExperimentSpec &spec : reducedSpecs())
        grids.push_back(runner.run(spec));
    return checksums(grids);
}

/** Every registry entry -> checksum of the text its renderer prints over
 *  its reduced grid; one pass simulates the grids. */
Checksums
renderedChecksums()
{
    std::vector<ExperimentSpec> specs;
    for (const Figure &fig : figures())
        specs.push_back(reducedSpec(fig));
    const SweepRunner runner(4);
    const std::vector<ResultSet> grids = runner.runAll(specs);
    Checksums sums;
    for (std::size_t i = 0; i < grids.size(); ++i) {
        const Figure &fig = figures()[i];
        testing::internal::CaptureStdout();
        fig.render(grids[i], runner.threads());
        sums[fig.name] = hex(fnv1a(testing::internal::GetCapturedStdout()));
    }
    return sums;
}

Checksums
readGoldens(const char *path)
{
    Checksums sums;
    std::ifstream is(path);
    if (!is)
        return sums;
    std::string name, sum;
    while (is >> name >> sum)
        sums[name] = sum;
    return sums;
}

void
writeGoldens(const char *path, const Checksums &sums)
{
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    for (const auto &entry : sums)
        os << entry.first << ' ' << entry.second << '\n';
    std::printf("updated %s (%zu figures)\n", path, sums.size());
}

bool
updatingGoldens()
{
    const char *update = std::getenv("FUSE_UPDATE_GOLDENS");
    return update && update[0] == '1';
}

/** Compare @p current against the committed lines of @p path, except
 *  the lines of the figures @p skip names. */
void
expectGoldens(const char *path, const Checksums &current,
              const std::set<std::string> &skip = {})
{
    const Checksums golden = readGoldens(path);
    ASSERT_FALSE(golden.empty())
        << "missing " << path
        << " — generate it from a known-good build with "
           "FUSE_UPDATE_GOLDENS=1 ./test_golden_figures";

    for (const auto &entry : golden) {
        if (skip.count(entry.first) > 0)
            continue;
        const auto it = current.find(entry.first);
        ASSERT_NE(it, current.end())
            << "figure " << entry.first
            << " has a committed golden but produced no output";
        EXPECT_EQ(it->second, entry.second)
            << entry.first
            << ": output diverged from the committed golden in " << path
            << " — the change is not observationally equivalent";
    }
    // New figures must come with goldens, not silently skip the tier.
    for (const auto &entry : current)
        EXPECT_TRUE(golden.count(entry.first))
            << "figure " << entry.first << " has no committed golden";
}

TEST(GoldenFigures, HashIsFnv1a)
{
    // Known FNV-1a vectors: a silent hash change would turn every golden
    // stale without any simulated-behaviour change.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hex(0xabcull), "0000000000000abc");
}

TEST(GoldenFigures, ReducedGridsMatchCommittedChecksums)
{
    const Checksums current = computeChecksums();
    ASSERT_FALSE(current.empty());

    if (updatingGoldens()) {
        Checksums all = current;
        const Checksums rendered = renderedChecksums();
        for (const std::string &name : kStaticTables)
            all[name] = rendered.at(name);
        writeGoldens(kGridGoldens, all);
        return;
    }

    expectGoldens(kGridGoldens, current, kStaticTables);
}

TEST(GoldenFigures, OnePassMatchesCommittedChecksums)
{
    // One pass over every reduced grid, as `fuse_sweep --figure all`
    // runs the paper: the cells the figures share are simulated once.
    expectGoldens(kGridGoldens,
                  checksums(SweepRunner(4).runAll(reducedSpecs())),
                  kStaticTables);
}

TEST(GoldenFigures, RenderedTextMatchesCommittedChecksums)
{
    // Every figure's printed tables, byte for byte: the JSON goldens pin
    // what the grids hold, this pins what the renderers make of it.
    const Checksums rendered = renderedChecksums();
    ASSERT_EQ(rendered.size(), figures().size());
    if (updatingGoldens()) {
        writeGoldens(kRenderedGoldens, rendered);
        return;
    }

    expectGoldens(kRenderedGoldens, rendered);
    const Checksums grid = readGoldens(kGridGoldens);
    for (const std::string &name : kStaticTables) {
        ASSERT_TRUE(grid.count(name)) << name;
        EXPECT_EQ(grid.at(name), rendered.at(name)) << name;
    }
}

} // namespace
} // namespace fuse
