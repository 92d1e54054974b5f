/**
 * @file
 * Tests for the experiment-orchestration subsystem: aggregation helpers,
 * spec parsing and override application, thread-pool determinism
 * (an N-thread sweep must be metric-for-metric identical to a serial
 * one), the canonical point text and the one-pass runAll it keys, the
 * CSV text, and the JSON export round trip and the inputs its reader
 * refuses.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/rng.hh"
#include "exp/canonical.hh"
#include "exp/experiment.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/result_set.hh"
#include "exp/sweep_runner.hh"
#include "exp/trace_studies.hh"
#include "sim/simulator.hh"
#include "workload/benchmarks.hh"

namespace fuse
{
namespace
{

// ----------------------------------------------------- aggregation

TEST(Aggregate, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Aggregate, GeomeanMixed)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-9);
}

TEST(Aggregate, GeomeanEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Aggregate, GeomeanClampsZeros)
{
    // Zeros are clamped to epsilon rather than producing -inf.
    EXPECT_GT(geomean({0.0, 1.0}), 0.0);
}

TEST(Aggregate, GeomeanNeverNan)
{
    // The empty-input guard must return a finite 0.0, not exp(0/0):
    // a NaN would silently poison every normalised figure column.
    EXPECT_FALSE(std::isnan(geomean({})));
    EXPECT_FALSE(std::isnan(geomean({0.0})));
    EXPECT_FALSE(std::isnan(geomean({0.0, 0.0})));
}

TEST(Aggregate, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

// ---------------------------------------------------- thread counts

TEST(ThreadCount, DefaultThreadCountIsAtLeastOne)
{
    // hardware_concurrency() may legally report 0 ("unknown"); the
    // default must clamp so no zero-thread pool can be constructed.
    EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(ThreadCount, RunnerNeverHasZeroThreads)
{
    EXPECT_GE(SweepRunner(0).threads(), 1u);
    EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

// ---------------------------------------------------- parallelFor

TEST(ParallelFor, CoversEveryIndexOnce)
{
    for (unsigned threads : {0u, 1u, 4u}) {
        std::vector<int> hits(257, 0);
        parallelFor(hits.size(), threads,
                    [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "threads=" << threads << " i=" << i;
    }
}

TEST(ParallelFor, ZeroTasksIsANoop)
{
    bool called = false;
    parallelFor(0, 4, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

// --------------------------------------------------- spec parsing

TEST(ExperimentSpec, ParsesFullSpec)
{
    const ExperimentSpec spec = ExperimentSpec::parse(
        "# a comment\n"
        "name: my_sweep\n"
        "base: test\n"
        "benchmarks: ATAX, BICG\n"
        "kinds: L1-SRAM, Dy-FUSE\n"
        "seed: 7\n"
        "variant: half | l1d.sramAreaFraction=0.5\n"
        "variant: quarter | l1d.sramAreaFraction=0.25, "
        "l1d.tagQueueEntries=8\n");
    EXPECT_EQ(spec.name, "my_sweep");
    EXPECT_EQ(spec.base, "test");
    ASSERT_EQ(spec.benchmarks.size(), 2u);
    EXPECT_EQ(spec.benchmarks[0], "ATAX");
    EXPECT_EQ(spec.benchmarks[1], "BICG");
    ASSERT_EQ(spec.kinds.size(), 2u);
    EXPECT_EQ(spec.kinds[0], L1DKind::L1Sram);
    EXPECT_EQ(spec.kinds[1], L1DKind::DyFuse);
    EXPECT_EQ(spec.seed, 7u);
    ASSERT_EQ(spec.variants.size(), 2u);
    EXPECT_EQ(spec.variants[0].label, "half");
    EXPECT_EQ(spec.variants[1].label, "quarter");
    EXPECT_EQ(spec.runCount(), 2u * 2u * 2u);
}

TEST(ExperimentSpec, ConfigForAppliesOverrides)
{
    const ExperimentSpec spec = ExperimentSpec::parse(
        "base: fermi\n"
        "benchmarks: ATAX\n"
        "kinds: Dy-FUSE\n"
        "seed: 13\n"
        "variant: small | l1d.sramAreaFraction=0.25, "
        "gpu.instructionBudgetPerSm=1234\n");
    const SimConfig config = spec.configFor(0);
    EXPECT_DOUBLE_EQ(config.l1d.sramAreaFraction, 0.25);
    EXPECT_EQ(config.gpu.instructionBudgetPerSm, 1234u);
    // The base preset is untouched otherwise...
    EXPECT_EQ(config.gpu.numSms, SimConfig::fermi().gpu.numSms);
    // ...and the spec seed reaches the trace generator deterministically.
    EXPECT_EQ(config.gpu.traceSeed, 13u);
}

TEST(ExperimentSpec, DefaultsFillBenchmarksAndKinds)
{
    const ExperimentSpec spec = ExperimentSpec::parse("name: defaults\n");
    EXPECT_EQ(spec.benchmarks.size(), allBenchmarks().size());
    EXPECT_FALSE(spec.kinds.empty());
    EXPECT_EQ(spec.variantCount(), 1u);
}

TEST(ExperimentSpec, ResolvesBenchmarkGroups)
{
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("all").size(),
              allBenchmarks().size());
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("motivation"),
              motivationWorkloads());
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("sensitivity"),
              sensitivityWorkloads());
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks("ATAX"),
              std::vector<std::string>{"ATAX"});
}

TEST(ExperimentSpec, ResolvesKinds)
{
    EXPECT_EQ(ExperimentSpec::resolveKinds("all").size(),
              allL1DKinds().size());
    EXPECT_EQ(ExperimentSpec::resolveKinds("Dy-FUSE"),
              std::vector<L1DKind>{L1DKind::DyFuse});
}

TEST(ExperimentSpec, ResolvesCommaLists)
{
    EXPECT_EQ(ExperimentSpec::resolveBenchmarks(" ATAX, ,BICG "),
              (std::vector<std::string>{"ATAX", "BICG"}));
    EXPECT_EQ(ExperimentSpec::resolveKinds("L1-SRAM,Dy-FUSE"),
              (std::vector<L1DKind>{L1DKind::L1Sram, L1DKind::DyFuse}));
}

TEST(ExperimentSpecDeathTest, AListThatNamesNothingIsFatal)
{
    EXPECT_EXIT(ExperimentSpec::resolveBenchmarks(","),
                ::testing::ExitedWithCode(1),
                "benchmark list ',' names no workload");
    EXPECT_EXIT(ExperimentSpec::resolveKinds(""),
                ::testing::ExitedWithCode(1),
                "kind list '' names no L1D kind");
    EXPECT_EXIT(ExperimentSpec::parse("benchmarks: ,\n"),
                ::testing::ExitedWithCode(1),
                "benchmark list ',' names no workload");
    EXPECT_EXIT(ExperimentSpec::parse("kinds: ,\n"),
                ::testing::ExitedWithCode(1),
                "kind list ',' names no L1D kind");
}

TEST(ExperimentSpec, RejectsUnknownOverrideKey)
{
    EXPECT_EXIT(
        {
            ExperimentSpec::parse("benchmarks: ATAX\n"
                                  "kinds: Dy-FUSE\n"
                                  "variant: x | no.such.key=1\n");
        },
        ::testing::ExitedWithCode(1), "unknown config override key");
}

TEST(ExperimentSpec, RejectsLenientSeed)
{
    // strtoull alone would run "7x" as seed 7 and wrap "-1"; every
    // value must be unsigned decimal digits, consumed whole.
    for (const char *seed : {"7x", "-1", "+7", "", "0x10", "1 2",
                             "99999999999999999999"}) {
        const std::string text = std::string("name: s\nseed: ") + seed
                                 + "\n";
        EXPECT_EXIT({ ExperimentSpec::parse(text); },
                    ::testing::ExitedWithCode(1),
                    "spec line 2: seed expects a non-negative integer")
            << "seed: " << seed;
    }
}

TEST(ExperimentSpec, RejectsLenientOverrideValue)
{
    // strtod alone would run "abc" as 0.0 and "0.25junk" as 0.25.
    for (const char *assign :
         {"l1d.sttDensity=abc", "l1d.sramAreaFraction=0.25junk",
          "l1d.sramAreaFraction=", "l1d.sramAreaFraction= "}) {
        const std::string text = std::string("benchmarks: ATAX\n"
                                             "variant: x | ")
                                 + assign + "\n";
        EXPECT_EXIT({ ExperimentSpec::parse(text); },
                    ::testing::ExitedWithCode(1),
                    "spec line 2: override value expects a number")
            << assign;
    }
}

TEST(ExperimentSpec, StrictNumbersKeepValidSpellings)
{
    const ExperimentSpec spec = ExperimentSpec::parse(
        "benchmarks: ATAX\n"
        "seed:   0042  \n"
        "variant: a | l1d.sramAreaFraction = 0.25 , gpu.maxCycles=1e6\n"
        "variant: l1d.sttDensity=4\n");
    EXPECT_EQ(spec.seed, 42u);
    ASSERT_EQ(spec.variants.size(), 2u);
    ASSERT_EQ(spec.variants[0].overrides.size(), 2u);
    EXPECT_DOUBLE_EQ(spec.variants[0].overrides[0].value, 0.25);
    EXPECT_DOUBLE_EQ(spec.variants[0].overrides[1].value, 1e6);
    EXPECT_EQ(spec.variants[1].label, "l1d.sttDensity=4");
    EXPECT_DOUBLE_EQ(spec.variants[1].overrides[0].value, 4.0);
}

/** Every spec file committed under tools/ as {name, text}, by name. */
std::vector<std::pair<std::string, std::string>>
committedSpecs()
{
    std::vector<std::pair<std::string, std::string>> specs;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::string(FUSE_REPO_DIR) + "/tools")) {
        if (entry.path().extension() != ".spec")
            continue;
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        specs.emplace_back(entry.path().filename().string(), text.str());
    }
    std::sort(specs.begin(), specs.end());
    return specs;
}

TEST(ExperimentSpec, CommittedSpecFilesParseAndValidate)
{
    const auto specs = committedSpecs();
    ASSERT_FALSE(specs.empty());
    for (const auto &[file, text] : specs) {
        const ExperimentSpec spec = ExperimentSpec::parse(text);
        EXPECT_GT(spec.variantCount(), 1u) << file;
        for (std::size_t v = 0; v < spec.variantCount(); ++v)
            spec.configFor(v).validate();
    }
}

/** A damaged spec either parses (the child then exits 0) or is a clean
 *  fatal (exit 1), never an abort or a crash. */
bool
parsedOrFatal(int status)
{
    return WIFEXITED(status)
           && (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
}

/** Parse @p text in a death-test child: "parsed" and exit 0, or the
 *  parser's own fatal. */
void
parseAndExit(const std::string &text)
{
    ExperimentSpec::parse(text);
    std::fputs("parsed\n", stderr);
    std::exit(0);
}

TEST(ExperimentSpecDeathTest, EveryCutOrSubstitutedSpecParsesOrFails)
{
    // The spec half of the parser-robustness tier: each committed spec
    // cut short anywhere, or with one byte replaced, runs or fatals
    // with a message.
    constexpr std::size_t kCuts = 30;
    constexpr int kSubstitutions = 16;
    Rng rng(36);
    for (const auto &[file, text] : committedSpecs()) {
        for (std::size_t c = 0; c < kCuts; ++c) {
            const std::size_t cut = text.size() * c / kCuts;
            EXPECT_EXIT(parseAndExit(text.substr(0, cut)), parsedOrFatal,
                        "parsed|fatal: ")
                << file << " cut at " << cut;
        }
        for (int s = 0; s < kSubstitutions; ++s) {
            std::string damaged = text;
            const std::size_t at = rng.below(text.size());
            damaged[at] = static_cast<char>(rng.below(256));
            EXPECT_EXIT(parseAndExit(damaged), parsedOrFatal,
                        "parsed|fatal: ")
                << file << " byte " << at << " = "
                << static_cast<int>(static_cast<unsigned char>(damaged[at]));
        }
    }
}

TEST(ExperimentSpec, RejectsMalformedLine)
{
    EXPECT_EXIT({ ExperimentSpec::parse("just some words\n"); },
                ::testing::ExitedWithCode(1), "expected 'key: value'");
}

// ----------------------------------------------- config validation

TEST(ConfigValidateDeathTest, SpecRejectsZeroWarpsPerSm)
{
    // A GPU without warps runs out of events before any SM is done: it
    // would report one cycle, no instructions, and exit 0.
    EXPECT_EXIT(
        {
            ExperimentSpec::parse("benchmarks: ATAX\n"
                                  "kinds: Dy-FUSE\n"
                                  "variant: x | gpu.warpsPerSm=0\n");
        },
        ::testing::ExitedWithCode(1), "gpu.warpsPerSm");
}

TEST(ConfigValidateDeathTest, SpecRejectsSramAreaFractionAboveOne)
{
    // Dy-FUSE would size a negative STT partition and die in
    // std::bad_alloc.
    EXPECT_EXIT(
        {
            ExperimentSpec::parse("benchmarks: ATAX\n"
                                  "kinds: Dy-FUSE\n"
                                  "variant: x | l1d.sramAreaFraction=1.5\n");
        },
        ::testing::ExitedWithCode(1), "l1d.sramAreaFraction");
}

TEST(ConfigValidateDeathTest, EveryRejectedValueNamesItsKey)
{
    const ConfigOverride bad[] = {
        // Further outside a range than the table walk below goes. The
        // walk covers the measured min - 1 and max + 1 inputs.
        {"l1d.sramAreaFraction", -0.25},
        {"l1d.sttDensity", -1},
        {"l1d.mshrEntries", 100000},
        {"gpu.warpsPerSm", 4e9},
        {"l1d.sttDensity", 1e6},
        {"gpu.dram.rowBytes", 64},
        // More sampled warps than the SM has (the default 4 of 2 warps
        // made a zero sampling stride and a SIGFPE).
        {"gpu.warpsPerSm", 2},
        {"l1d.predictor.sampledWarps", 49},
        // A value the 4-bit predictor counter cannot hold (counterInit=100
        // used to exit 0 with a Dy-FUSE miss rate of 1.000), or a counter
        // too narrow for the default threshold 14 and initial value 8.
        {"l1d.predictor.counterInit", 100},
        {"l1d.predictor.unusedThreshold", 100},
        {"l1d.predictor.counterInit", 16},
        {"l1d.predictor.unusedThreshold", 16},
        {"l1d.predictor.counterBits", 3},
        // More ways than the bank has lines (256 lines on L1-SRAM, 128 on
        // the hybrid SRAM bank, 512 on the hybrid STT bank, 1024 on
        // By-NVM, 524 in each of the 12 L2 banks).
        {"l1d.baselineWays", 1024},
        {"l1d.sramWays", 1024},
        {"l1d.sttWays", 1024},
        {"l1d.nvmWays", 2048},
        {"gpu.l2.numWays", 525},
        {"gpu.l2.numWays", 65536},
    };
    for (const ConfigOverride &o : bad) {
        SimConfig config = SimConfig::testScale();
        applyOverride(config, o);
        EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                    o.key.c_str())
            << o.key << " = " << o.value;
    }
}

TEST(ConfigValidateDeathTest, EveryFieldRejectsValuesJustOutsideItsRange)
{
    // An integer row rejects min - 1 and max + 1 where its field can hold
    // them; a real row rejects min and a finite max.
    std::size_t checked = 0;
    SimConfig probe;
    for (const ConfigField &f : configFields()) {
        std::vector<double> bad;
        std::visit(
            [&](auto *field) {
                using T = std::remove_pointer_t<decltype(field)>;
                if constexpr (std::is_same_v<T, double>) {
                    bad.push_back(f.min);
                    if (std::isfinite(f.max))
                        bad.push_back(f.max);
                } else {
                    if (f.min > 0)
                        bad.push_back(f.min - 1);
                    if (f.max < static_cast<double>(
                            std::numeric_limits<T>::max()))
                        bad.push_back(f.max + 1);
                }
            },
            f.of(probe));
        for (double v : bad) {
            SimConfig config = SimConfig::testScale();
            applyOverride(config, {f.key, v});
            const std::string message =
                std::string(f.key) + " = .* lies outside";
            EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                        message.c_str())
                << f.key << " = " << v;
            ++checked;
        }
    }
    EXPECT_GT(checked, configFields().size());
}

TEST(ConfigValidateDeathTest, IntegerKeysTakeOnlyIntegers)
{
    // A double cast straight to an unsigned field truncates 2.7 to 2 and
    // is undefined for -1 or 2^32, so an integer key takes only whole
    // values in its field's range.
    const ConfigOverride bad[] = {
        {"l1d.tagQueueEntries", 2.7},
        {"gpu.numSms", 2.5},
        {"l1d.swapBufferEntries", -1},
        {"l1d.mshrEntries", 4294967296.0}, // 2^32
        {"gpu.traceSeed", 18446744073709551616.0}, // 2^64
        {"gpu.instructionBudgetPerSm", std::nan("")},
        {"gpu.maxCycles", std::numeric_limits<double>::infinity()},
    };
    for (const ConfigOverride &o : bad) {
        SimConfig config = SimConfig::testScale();
        const std::string message = o.key + " = .*expects an integer";
        EXPECT_EXIT(applyOverride(config, o), ::testing::ExitedWithCode(1),
                    message.c_str())
            << o.key << " = " << o.value;
    }
    EXPECT_EXIT(
        {
            ExperimentSpec::parse("benchmarks: ATAX\n"
                                  "variant: a | l1d.tagQueueEntries=2.7\n");
        },
        ::testing::ExitedWithCode(1), "l1d.tagQueueEntries = 2.7");
}

TEST(ConfigValidate, IntegerKeysTakeTheirWholeRange)
{
    // applyOverride checks only what the field's type holds; validate()
    // checks the row's range.
    SimConfig config = SimConfig::testScale();
    applyOverride(config, {"l1d.tagQueueEntries", 0});
    applyOverride(config, {"gpu.numSms", 4294967295.0});
    applyOverride(config, {"gpu.traceSeed", 1e19});
    applyOverride(config, {"l1d.sttDensity", 2.5});
    EXPECT_EQ(config.l1d.tagQueueEntries, 0u);
    EXPECT_EQ(config.gpu.numSms, 4294967295u);
    EXPECT_EQ(config.gpu.traceSeed, 10000000000000000000ull);
    EXPECT_EQ(config.l1d.sttDensity, 2.5);
}

TEST(ConfigValidateDeathTest, SimulatorRejectsInvalidConfig)
{
    SimConfig config = SimConfig::testScale();
    config.l1d.mshrEntries = 0;
    EXPECT_EXIT(Simulator(config).run("ATAX", L1DKind::DyFuse),
                ::testing::ExitedWithCode(1), "l1d.mshrEntries");
}

TEST(ConfigValidate, ZeroInstructionBudgetIsLegal)
{
    SimConfig config = SimConfig::testScale();
    config.gpu.instructionBudgetPerSm = 0;
    EXPECT_EQ(Simulator(config).run("ATAX", L1DKind::DyFuse).instructions,
              0u);
}

TEST(ConfigValidate, EveryFigureVariantValidates)
{
    // configFor() validates, so an invalid figure variant exits this
    // binary with the offending key on stderr.
    std::size_t checked = 0;
    for (const Figure &fig : figures()) {
        const ExperimentSpec spec = fig.makeSpec();
        for (std::size_t v = 0; v < spec.variantCount(); ++v) {
            spec.configFor(v).validate();
            ++checked;
        }
    }
    EXPECT_GT(checked, figures().size());
}

TEST(L1DKindNames, RoundTrip)
{
    for (L1DKind kind : allL1DKinds()) {
        L1DKind parsed;
        ASSERT_TRUE(l1dKindFromString(toString(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    L1DKind parsed;
    EXPECT_FALSE(l1dKindFromString("not-a-kind", parsed));
}

// ---------------------------------------------------- determinism

/** A small but real sweep: 2 workloads x 2 kinds x 2 variants at test
 *  scale with a reduced instruction budget. */
ExperimentSpec
smallSpec()
{
    ExperimentSpec spec;
    spec.name = "determinism";
    spec.base = "test";
    spec.benchmarks = {"ATAX", "GESUM"};
    spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    spec.variants = {
        {"a", {{"gpu.instructionBudgetPerSm", 4000}}},
        {"b",
         {{"gpu.instructionBudgetPerSm", 4000},
          {"l1d.sramAreaFraction", 0.25}}},
    };
    spec.seed = 3;
    return spec;
}

void
expectIdenticalResults(const ResultSet &a, const ResultSet &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const RunResult &ra = a.at(i);
        const RunResult &rb = b.at(i);
        ASSERT_TRUE(ra.valid);
        ASSERT_TRUE(rb.valid);
        EXPECT_EQ(ra.benchmark, rb.benchmark);
        EXPECT_EQ(ra.kind, rb.kind);
        EXPECT_EQ(ra.variant, rb.variant);
        for (const auto &field : metricFields())
            EXPECT_EQ(field.get(ra.metrics), field.get(rb.metrics))
                << ra.benchmark << "/" << toString(ra.kind) << "/"
                << ra.variantLabel << " metric " << field.name;
    }
}

TEST(SweepRunner, FourThreadsMatchSerialBitForBit)
{
    const ExperimentSpec spec = smallSpec();
    const ResultSet serial = SweepRunner(1).run(spec);
    const ResultSet parallel = SweepRunner(4).run(spec);
    expectIdenticalResults(serial, parallel);
}

TEST(SweepRunner, MatchesDirectSimulatorRuns)
{
    ExperimentSpec spec = smallSpec();
    spec.variants.resize(1);
    const ResultSet results = SweepRunner(4).run(spec);

    Simulator sim(spec.configFor(0));
    for (const auto &name : spec.benchmarks) {
        for (L1DKind kind : spec.kinds) {
            const Metrics direct = sim.run(name, kind);
            const Metrics &swept = results.metrics(name, kind);
            for (const auto &field : metricFields())
                EXPECT_EQ(field.get(direct), field.get(swept))
                    << name << "/" << toString(kind) << " metric "
                    << field.name;
        }
    }
}

TEST(SweepRunner, ReportsProgressForEveryRun)
{
    const ExperimentSpec spec = smallSpec();
    SweepRunner runner(2);
    std::size_t calls = 0;
    std::size_t last_done = 0;
    runner.onProgress([&](const RunResult &run, std::size_t done,
                          std::size_t total) {
        ++calls;
        EXPECT_TRUE(run.valid);
        EXPECT_EQ(total, spec.runCount());
        EXPECT_GT(done, last_done);
        last_done = done;
    });
    runner.run(spec);
    EXPECT_EQ(calls, spec.runCount());
}

// --------------------------------------------------------- one pass

std::string
jsonOf(const ResultSet &results)
{
    std::ostringstream os;
    writeJson(os, results);
    return os.str();
}

class RunAll : public ::testing::TestWithParam<unsigned>
{};

TEST_P(RunAll, SharedCellsSimulateOnceAndMatchRun)
{
    // The second spec re-reads GESUM's cells of the first, and its
    // "again" variant repeats "a" under another label.
    const ExperimentSpec first = smallSpec();
    ExperimentSpec second = smallSpec();
    second.name = "overlap";
    second.benchmarks = {"GESUM", "MVT"};
    second.kinds = {L1DKind::DyFuse, L1DKind::Hybrid};
    second.variants.push_back({"again", first.variants[0].overrides});
    const std::vector<ExperimentSpec> specs = {first, second};

    std::set<std::string> points;
    std::size_t cells = 0;
    for (const ExperimentSpec &spec : specs)
        for (std::size_t b = 0; b < spec.benchmarks.size(); ++b)
            for (std::size_t v = 0; v < spec.variantCount(); ++v)
                for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
                    points.insert(canonicalSpecPoint(spec, b, v, k));
                    ++cells;
                }
    ASSERT_EQ(cells, 20u);
    ASSERT_EQ(points.size(), 14u);

    SweepRunner runner(GetParam());
    std::size_t progress = 0;
    runner.onProgress(
        [&](const RunResult &, std::size_t, std::size_t total) {
            ++progress;
            EXPECT_EQ(total, points.size());
        });
    std::size_t simulated = 0;
    const std::vector<ResultSet> results = runner.runAll(specs, &simulated);
    EXPECT_EQ(simulated, points.size());
    EXPECT_EQ(progress, points.size());
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(jsonOf(results[i]),
                  jsonOf(SweepRunner(GetParam()).run(specs[i])))
            << specs[i].name;
}

INSTANTIATE_TEST_SUITE_P(Threads, RunAll, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned> &info) {
                             return "threads" + std::to_string(info.param);
                         });

// ------------------------------------------------- canonical points

TEST(Canonical, ConfigTextIsDeterministic)
{
    const SimConfig config = SimConfig::testScale();
    EXPECT_EQ(canonicalConfig(config), canonicalConfig(config));
    EXPECT_NE(canonicalConfig(config).find("gpu.numSms = 4"),
              std::string::npos);
}

TEST(Canonical, BehaviouralFieldsSplitTheCache)
{
    // Moving any field off its default must change the text, or runAll
    // would serve one configuration's simulation for the other. The move
    // (+1 for an integer, x1.25 for a real) is valid at test scale.
    const SimConfig base = SimConfig::testScale();
    for (const ConfigField &f : configFields()) {
        SimConfig moved = base;
        std::visit(
            [](auto *field) {
                if constexpr (std::is_same_v<decltype(field), double *>)
                    *field *= 1.25;
                else
                    ++*field;
            },
            f.of(moved));
        moved.validate();
        EXPECT_NE(canonicalConfig(base), canonicalConfig(moved)) << f.key;
    }
}

/** A test-scale spec with a pinned budget and a non-default seed. */
ExperimentSpec
pointSpec()
{
    ExperimentSpec spec;
    spec.name = "points";
    spec.base = "test";
    spec.benchmarks = {"ATAX", "BICG"};
    spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    spec.seed = 7;
    spec.variants = {ConfigVariant{
        "probe", {ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}}};
    return spec;
}

TEST(Canonical, PointTextNamesWorkloadAndKind)
{
    const ExperimentSpec spec = pointSpec();
    const std::string text = canonicalSpecPoint(spec, 0, 0, 0);
    EXPECT_NE(text.find("benchmark = ATAX"), std::string::npos);
    EXPECT_NE(text.find("kind = L1-SRAM"), std::string::npos);
    // The spec's seed reaches the point through the materialised config.
    EXPECT_NE(text.find("gpu.traceSeed = 7"), std::string::npos);
    // The variant override is applied, not merely named.
    EXPECT_NE(text.find("gpu.instructionBudgetPerSm = 2000"),
              std::string::npos);
}

TEST(Canonical, PointTextIsFastModeIndependent)
{
    // FUSE_FAST scales preset budgets only; a spec that pins its budget
    // by override names the same point either way.
    const ExperimentSpec spec = pointSpec();
    const std::string plain = canonicalSpecPoint(spec, 0, 0, 0);
    ::setenv("FUSE_FAST", "1", 1);
    const std::string fast = canonicalSpecPoint(spec, 0, 0, 0);
    ::unsetenv("FUSE_FAST");
    EXPECT_EQ(plain, fast);
}

// ------------------------------------------------------ result set

TEST(ResultSet, FindMissesGracefully)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    EXPECT_NE(results.find("ATAX", L1DKind::DyFuse, 1), nullptr);
    EXPECT_EQ(results.find("MVT", L1DKind::DyFuse), nullptr);
    EXPECT_EQ(results.find("ATAX", L1DKind::Oracle), nullptr);
    EXPECT_EQ(results.find("ATAX", L1DKind::DyFuse, 2), nullptr);
}

TEST(ResultSetDeathTest, AGridNamesEachValueOnce)
{
    EXPECT_EXIT({ ResultSet("dup", {"ATAX", "ATAX"}, {L1DKind::L1Sram},
                            {"x"}); },
                ::testing::ExitedWithCode(1),
                "'dup' names benchmark 'ATAX' twice");
    EXPECT_EXIT({ ResultSet("dup", {"ATAX"},
                            {L1DKind::L1Sram, L1DKind::L1Sram}, {"x"}); },
                ::testing::ExitedWithCode(1),
                "'dup' names kind 'L1-SRAM' twice");
    EXPECT_EXIT({ ResultSet("dup", {"ATAX"}, {L1DKind::L1Sram},
                            {"x", "x"}); },
                ::testing::ExitedWithCode(1),
                "'dup' names variant 'x' twice");
}

// ------------------------------------------------------- exporters

TEST(Export, CsvTextIsExact)
{
    // A label that needs quoting, and an IPC with no exact binary value:
    // %.17g prints every digit the double needs.
    ResultSet results("csv", {"ATAX"}, {L1DKind::L1Sram}, {"a,\"b\""});
    results.at(0).metrics.ipc = 0.1;
    results.at(0).valid = true;
    std::ostringstream os;
    writeCsv(os, results);
    EXPECT_EQ(os.str(),
              "benchmark,kind,variant,cycles,instructions,ipc,"
              "l1d_miss_rate,apki,offchip_requests,bypass_ratio,stall_stt,"
              "stall_tag_search,l1d_stall_cycles,pred_true,pred_false,"
              "pred_neutral,mem_wait_fraction,network_share,dram_share,"
              "energy_l1d_dynamic,energy_l1d_leakage,energy_l2,"
              "energy_dram,energy_noc,energy_compute,energy_sm_leakage\n"
              "ATAX,L1-SRAM,\"a,\"\"b\"\"\",0,0,0.10000000000000001,"
              "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n");
}

/** The smallSpec() export: a header of three lines, the 8 rows one per
 *  line (each but the last ending in ','), and a footer of two. */
const std::string &
smallExport()
{
    static const std::string text = jsonOf(SweepRunner(2).run(smallSpec()));
    return text;
}

ResultSet
readText(const std::string &text)
{
    std::istringstream is(text);
    return readJson(is);
}

TEST(Export, JsonRoundTripIsValueExact)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    const ResultSet readback = readText(jsonOf(results));
    EXPECT_EQ(readback.name(), results.name());
    EXPECT_EQ(readback.benchmarks(), results.benchmarks());
    EXPECT_EQ(readback.kinds(), results.kinds());
    EXPECT_EQ(readback.variantLabels(), results.variantLabels());
    expectIdenticalResults(results, readback);
    EXPECT_EQ(jsonOf(readback), jsonOf(results));
}

TEST(ExportDeathTest, RowIIsCellI)
{
    std::vector<std::string> lines;
    std::istringstream is(smallExport());
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 13u);
    const auto text = [](const std::vector<std::string> &rows) {
        std::string out;
        for (const std::string &row : rows)
            out += row + "\n";
        return out;
    };
    // Line 5 is row 2, (ATAX, L1-SRAM, 'b'); line 6 is row 3.
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + 5);
    EXPECT_EXIT(readText(text(dropped)), ::testing::ExitedWithCode(1),
                "7 rows for the 8 cells of the 'determinism' grid");
    std::vector<std::string> repeated = lines;
    repeated.insert(repeated.begin() + 5, lines[5]);
    EXPECT_EXIT(readText(text(repeated)), ::testing::ExitedWithCode(1),
                "9 rows for the 8 cells");
    std::vector<std::string> swapped = lines;
    std::swap(swapped[5], swapped[6]);
    EXPECT_EXIT(readText(text(swapped)), ::testing::ExitedWithCode(1),
                "row 2 is \\(ATAX, Dy-FUSE, 'b'\\)");
    EXPECT_EXIT(readText(smallExport() + smallExport()),
                ::testing::ExitedWithCode(1), "trailing text");
}

TEST(ExportDeathTest, RowsCarryEveryMetricOnceInColumnOrder)
{
    const std::string &text = smallExport();
    const std::size_t ipc = text.find("\"ipc\": ");
    const std::size_t next = text.find("\"l1d_miss_rate\": ", ipc);
    ASSERT_NE(next, std::string::npos);
    const std::string entry = text.substr(ipc, next - ipc);

    std::string missing = text;
    missing.erase(ipc, entry.size());
    EXPECT_EXIT(readText(missing), ::testing::ExitedWithCode(1),
                "expected key 'ipc' .*got 'l1d_miss_rate'");
    std::string repeated = text;
    repeated.insert(ipc, entry);
    EXPECT_EXIT(readText(repeated), ::testing::ExitedWithCode(1),
                "expected key 'l1d_miss_rate' .*got 'ipc'");
    std::string unknown = text;
    unknown.replace(ipc, 5, "\"ipx\"");
    EXPECT_EXIT(readText(unknown), ::testing::ExitedWithCode(1),
                "expected key 'ipc' .*got 'ipx'");
}

TEST(ExportDeathTest, CountMetricsTakeOnlyWholeNumbers)
{
    const std::string &text = smallExport();
    const std::size_t at = text.find("\"cycles\": ") + 10;
    const std::size_t end = text.find(',', at);
    for (const char *value : {"-5", "1.5", "1e30", "nan"}) {
        std::string bad = text;
        bad.replace(at, end - at, value);
        EXPECT_EXIT(readText(bad), ::testing::ExitedWithCode(1),
                    "metric 'cycles' is a count")
            << value;
    }
}

TEST(ExportDeathTest, EveryCutExportFails)
{
    // The JSON half of the parser-robustness tier: an export cut short
    // anywhere is a clean fatal, never a smaller grid.
    const std::string &text = smallExport();
    constexpr std::size_t kCuts = 30;
    for (std::size_t c = 0; c < kCuts; ++c) {
        const std::size_t cut = text.size() * c / kCuts;
        EXPECT_EXIT(readText(text.substr(0, cut)),
                    ::testing::ExitedWithCode(1), "JSON: ")
            << "cut at " << cut;
    }
}

// --------------------------------------------------------- figures

TEST(Figures, RegistryCoversEveryPaperFigure)
{
    // One entry per reproduced paper figure/table (fuse_sweep --list).
    EXPECT_EQ(figures().size(), 15u);
    for (const auto &fig : figures()) {
        EXPECT_NE(findFigure(fig.name), nullptr);
        // Specs must materialise without errors.
        const ExperimentSpec spec = fig.makeSpec();
        for (std::size_t v = 0; v < spec.variantCount(); ++v)
            spec.configFor(v);
    }
    EXPECT_EQ(findFigure("not-a-figure"), nullptr);
}

TEST(Figures, Fig13SpecMatchesThePaperGrid)
{
    const Figure *fig = findFigure("fig13");
    ASSERT_NE(fig, nullptr);
    const ExperimentSpec spec = fig->makeSpec();
    EXPECT_EQ(spec.benchmarks.size(), 21u);
    EXPECT_EQ(spec.kinds.size(), 7u);
    EXPECT_EQ(spec.runCount(), 21u * 7u);
    EXPECT_EQ(spec.base, "fermi");
}


// --------------------------------------------------- trace studies

TEST(TraceStudies, ReadLevelMixIsExact)
{
    // Fig. 6 has no golden checksum and no exported run, so its inputs
    // are pinned here: exact class fractions on workloads that together
    // cover all six pattern kinds.
    struct Golden
    {
        const char *benchmark;
        double wm, readIntensive, worm, woro;
    };
    const Golden goldens[] = {
        {"2DCONV", 0, 0, 0.065276229899697502, 0.9347237701003025},
        {"ATAX", 0.0027978549778503148, 0, 0.98169736535322916,
         0.015504779668920493},
        {"GEMM", 0.002789886660854403, 0, 0.98209822725951756,
         0.015111886079628016},
        {"PVC", 0.069890288500609507, 0, 0.93010971149939048, 0},
        {"II", 0.0027665706051873198, 0, 0.98951008645533145,
         0.0077233429394812682},
        {"SM", 0.0048979591836734691, 0, 0.99510204081632658, 0},
        {"srad_v1", 0.0096096096096096092, 0, 0.21461461461461462,
         0.77577577577577572},
        {"pathf", 0, 0, 0.061712355463167466, 0.93828764453683255},
    };
    for (const Golden &g : goldens) {
        const ReadLevelMix mix = readLevelMix(benchmarkByName(g.benchmark));
        EXPECT_EQ(mix.wm, g.wm) << g.benchmark;
        EXPECT_EQ(mix.readIntensive, g.readIntensive) << g.benchmark;
        EXPECT_EQ(mix.worm, g.worm) << g.benchmark;
        EXPECT_EQ(mix.woro, g.woro) << g.benchmark;
    }
}

TEST(TraceStudies, CbfFalsePositiveRateIsExact)
{
    // Fig. 20's two sweeps (hash count at 16 slots, slot count at 3
    // hashes), pinned to exact rates for the same reason as Fig. 6.
    struct Golden
    {
        const char *benchmark;
        double slots16hash1, slots16hash3, slots128hash3;
    };
    const Golden goldens[] = {
        {"ATAX", 0.18062957164909371, 0.13434170980357932,
         0.00064909917035307723},
        {"PVC", 0.23934930101377017, 0.17896841682456799,
         0.00060249906132392624},
    };
    for (const Golden &g : goldens) {
        const BenchmarkSpec &spec = benchmarkByName(g.benchmark);
        EXPECT_EQ(cbfFalsePositiveRate(spec, 16, 1), g.slots16hash1)
            << g.benchmark;
        EXPECT_EQ(cbfFalsePositiveRate(spec, 16, 3), g.slots16hash3)
            << g.benchmark;
        EXPECT_EQ(cbfFalsePositiveRate(spec, 128, 3), g.slots128hash3)
            << g.benchmark;
    }
}

} // namespace
} // namespace fuse
