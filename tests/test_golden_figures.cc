/**
 * @file
 * Golden-figure checksum regression tier. Runs a reduced-budget subset of
 * every paper figure's sweep grid through SweepRunner, figure by figure
 * and in one runAll pass, and compares an FNV-1a hash of each canonical
 * JSON export against checksums committed in
 * tests/goldens/figure_checksums.txt. The static tables simulate nothing,
 * so for them (table1, table3) the same file pins the hash of the
 * rendered text.
 *
 * The goldens were generated from the pre-refactor scan-based replacement
 * engine, so any observational-equivalence break in victim selection, MSHR
 * retirement, or sweep plumbing fails here — in ctest, not in figure
 * review. Regenerate (only after deliberately changing simulated
 * behaviour) with:
 *
 *     FUSE_UPDATE_GOLDENS=1 ./test_golden_figures
 *
 * The hashes cover raw metric bit patterns (%.17g), so they are pinned to
 * one platform/compiler configuration — the repo's CI image and this
 * container. That strictness is the point: byte-identical means
 * byte-identical.
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

const char *const kGoldenPath =
    FUSE_REPO_DIR "/tests/goldens/figure_checksums.txt";

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

/** The static tables the tier pins by their rendered text. */
const std::set<std::string> kStaticTables = {"table1", "table3"};

/**
 * The figure's spec cut down to golden-tier cost: the first three
 * workloads and a reduced per-SM instruction budget (scaled down further
 * for the 84-SM Volta study). Everything else — kinds, variants, seed —
 * stays exactly as the figure defines it, so the golden still walks the
 * full replacement/MSHR/approximation machinery of every organisation.
 */
ExperimentSpec
reducedSpec(const Figure &fig)
{
    ExperimentSpec spec = fig.makeSpec();
    if (spec.runCount() == 0)
        return spec; // Static table / trace study: nothing to sweep.
    if (spec.benchmarks.size() > 3)
        spec.benchmarks.resize(3);
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
std::map<std::string, std::string>
checksums(const std::vector<ResultSet> &grids)
{
    std::map<std::string, std::string> sums;
    for (const ResultSet &results : grids) {
        std::stringstream json;
        writeJson(json, results);
        sums[results.name()] = hex(fnv1a(json.str()));
    }
    return sums;
}

/** Each reduced grid swept on its own, as `fuse_sweep --figure` does. */
std::map<std::string, std::string>
computeChecksums()
{
    const SweepRunner runner(1);
    std::vector<ResultSet> grids;
    for (const ExperimentSpec &spec : reducedSpecs())
        grids.push_back(runner.run(spec));
    return checksums(grids);
}

/** table name -> checksum of the text its renderer prints. */
std::map<std::string, std::string>
staticChecksums()
{
    std::map<std::string, std::string> sums;
    for (const std::string &name : kStaticTables) {
        const Figure *fig = findFigure(name);
        const ResultSet results = SweepRunner(1).run(fig->makeSpec());
        testing::internal::CaptureStdout();
        fig->render(results, 1);
        sums[name] = hex(fnv1a(testing::internal::GetCapturedStdout()));
    }
    return sums;
}

std::map<std::string, std::string>
readGoldens()
{
    std::map<std::string, std::string> sums;
    std::ifstream is(kGoldenPath);
    if (!is)
        return sums;
    std::string name, sum;
    while (is >> name >> sum)
        sums[name] = sum;
    return sums;
}

/** Compare @p current against the committed lines of its tier: the
 *  static tables' when @p static_tables, the sweeps' otherwise. */
void
expectGoldens(const std::map<std::string, std::string> &current,
              bool static_tables = false)
{
    const std::map<std::string, std::string> golden = readGoldens();
    ASSERT_FALSE(golden.empty())
        << "missing " << kGoldenPath
        << " — generate it from a known-good build with "
           "FUSE_UPDATE_GOLDENS=1 ./test_golden_figures";

    for (const auto &entry : golden) {
        if ((kStaticTables.count(entry.first) > 0) != static_tables)
            continue;
        const auto it = current.find(entry.first);
        ASSERT_NE(it, current.end())
            << "figure " << entry.first
            << " has a committed golden but produced no sweep";
        EXPECT_EQ(it->second, entry.second)
            << entry.first
            << ": simulated output diverged from the committed golden — "
               "the change is not observationally equivalent";
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
    const std::map<std::string, std::string> current = computeChecksums();
    ASSERT_FALSE(current.empty());

    if (const char *update = std::getenv("FUSE_UPDATE_GOLDENS");
        update && update[0] == '1') {
        std::map<std::string, std::string> all = current;
        all.merge(staticChecksums());
        std::ofstream os(kGoldenPath);
        ASSERT_TRUE(os) << "cannot write " << kGoldenPath;
        for (const auto &entry : all)
            os << entry.first << ' ' << entry.second << '\n';
        std::printf("updated %s (%zu figures)\n", kGoldenPath, all.size());
        return;
    }

    expectGoldens(current);
}

TEST(GoldenFigures, OnePassMatchesCommittedChecksums)
{
    // One pass over every reduced grid, as `fuse_sweep --figure all`
    // runs the paper: the cells the figures share are simulated once.
    expectGoldens(checksums(SweepRunner(4).runAll(reducedSpecs())));
}

TEST(GoldenFigures, StaticTablesMatchCommittedChecksums)
{
    expectGoldens(staticChecksums(), /*static_tables=*/true);
}

} // namespace
} // namespace fuse
