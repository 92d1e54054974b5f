/**
 * @file
 * Tests for the experiment-orchestration subsystem: aggregation helpers,
 * spec parsing and override application, thread-pool determinism
 * (an N-thread sweep must be metric-for-metric identical to a serial
 * one), and the JSON/CSV export round trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "exp/experiment.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/result_set.hh"
#include "exp/sweep_runner.hh"
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

TEST(Aggregate, MeanAndNormalize)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    const std::vector<double> norm = normalizeTo({2.0, 9.0}, {4.0, 3.0});
    ASSERT_EQ(norm.size(), 2u);
    EXPECT_DOUBLE_EQ(norm[0], 0.5);
    EXPECT_DOUBLE_EQ(norm[1], 3.0);
    // A zero baseline yields 0, not inf.
    EXPECT_DOUBLE_EQ(normalizeTo({1.0}, {0.0})[0], 0.0);
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
        {"gpu.numSms", 0},
        {"gpu.warpsPerSm", 0},
        {"gpu.maxCycles", 0},
        {"l1d.mshrEntries", 0},
        {"l1d.sramWays", 0},
        {"l1d.sttWays", 0},
        {"l1d.baselineWays", 0},
        {"l1d.nvmWays", 0},
        {"l1d.sramAreaFraction", 0.0},
        {"l1d.sramAreaFraction", 1.0},
        {"l1d.sramAreaFraction", -0.25},
    };
    for (const ConfigOverride &o : bad) {
        SimConfig config = SimConfig::testScale();
        applyOverride(config, o);
        EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                    o.key.c_str())
            << o.key << " = " << o.value;
    }
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

// ------------------------------------------------------- sharding

TEST(SweepRunner, ShardAndMergeEqualsUnshardedRun)
{
    const ExperimentSpec spec = smallSpec();
    const ResultSet full = SweepRunner(1).run(spec);

    constexpr std::size_t kShards = 3;
    ResultSet merged = SweepRunner(2).run(spec, 0, kShards);
    for (std::size_t s = 1; s < kShards; ++s)
        merged.merge(SweepRunner(2).run(spec, s, kShards));

    expectIdenticalResults(full, merged);
}

TEST(SweepRunner, ShardsPartitionTheGrid)
{
    const ExperimentSpec spec = smallSpec();
    constexpr std::size_t kShards = 3;
    std::vector<int> owners(spec.runCount(), 0);
    for (std::size_t s = 0; s < kShards; ++s) {
        const ResultSet shard = SweepRunner(1).run(spec, s, kShards);
        ASSERT_EQ(shard.size(), spec.runCount());
        for (std::size_t i = 0; i < shard.size(); ++i)
            owners[i] += shard.at(i).valid ? 1 : 0;
    }
    // Every cell simulated exactly once across the shards.
    for (std::size_t i = 0; i < owners.size(); ++i)
        EXPECT_EQ(owners[i], 1) << "cell " << i;
}

TEST(SweepRunner, RejectsInvalidShard)
{
    const ExperimentSpec spec = smallSpec();
    EXPECT_EXIT({ SweepRunner(1).run(spec, 3, 3); },
                ::testing::ExitedWithCode(1), "invalid shard");
    EXPECT_EXIT({ SweepRunner(1).run(spec, 0, 0); },
                ::testing::ExitedWithCode(1), "invalid shard");
}

TEST(ResultSet, MergeRejectsMismatchedGridsAndOverlap)
{
    const ExperimentSpec spec = smallSpec();
    const ResultSet shard0 = SweepRunner(1).run(spec, 0, 2);

    ExperimentSpec other = spec;
    other.name = "different";
    const ResultSet alien = SweepRunner(1).run(other, 0, 2);

    {
        ResultSet merged = shard0;
        EXPECT_EXIT({ merged.merge(alien); },
                    ::testing::ExitedWithCode(1), "incompatible grids");
    }
    {
        ResultSet merged = shard0;
        EXPECT_EXIT({ merged.merge(shard0); },
                    ::testing::ExitedWithCode(1), "filled by both sides");
    }
}

// ------------------------------------------------------ result set

TEST(ResultSet, SeriesAndNormalisation)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    const auto get_ipc = [](const Metrics &m) { return m.ipc; };
    const std::vector<double> base =
        results.series(L1DKind::L1Sram, get_ipc, 0);
    const std::vector<double> dy =
        results.series(L1DKind::DyFuse, get_ipc, 0);
    const std::vector<double> norm =
        results.normalizedSeries(L1DKind::DyFuse, L1DKind::L1Sram,
                                 get_ipc, 0, 0);
    ASSERT_EQ(base.size(), 2u);
    ASSERT_EQ(norm.size(), 2u);
    for (std::size_t i = 0; i < norm.size(); ++i)
        EXPECT_DOUBLE_EQ(norm[i], dy[i] / base[i]);
}

TEST(ResultSet, FindMissesGracefully)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    EXPECT_NE(results.find("ATAX", L1DKind::DyFuse, 1), nullptr);
    EXPECT_EQ(results.find("MVT", L1DKind::DyFuse), nullptr);
    EXPECT_EQ(results.find("ATAX", L1DKind::Oracle), nullptr);
    EXPECT_EQ(results.find("ATAX", L1DKind::DyFuse, 2), nullptr);
}

// ------------------------------------------------------- exporters

TEST(Export, CsvRoundTripIsValueExact)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    std::stringstream ss;
    writeCsv(ss, results);
    const std::vector<FlatRun> readback = readCsv(ss);

    ASSERT_EQ(readback.size(), results.size());
    std::size_t i = 0;
    for (const auto &run : results.runs()) {
        const FlatRun &flat = readback[i++];
        EXPECT_EQ(flat.benchmark, run.benchmark);
        EXPECT_EQ(flat.kind, toString(run.kind));
        EXPECT_EQ(flat.variantLabel, run.variantLabel);
        for (const auto &field : metricFields()) {
            const auto it = flat.values.find(field.name);
            ASSERT_NE(it, flat.values.end()) << field.name;
            EXPECT_EQ(it->second, field.get(run.metrics)) << field.name;
        }
    }
}

TEST(Export, JsonRoundTripIsValueExact)
{
    const ResultSet results = SweepRunner(2).run(smallSpec());
    std::stringstream ss;
    writeJson(ss, results);
    const std::vector<FlatRun> readback = readJson(ss);

    ASSERT_EQ(readback.size(), results.size());
    std::size_t i = 0;
    for (const auto &run : results.runs()) {
        const FlatRun &flat = readback[i++];
        EXPECT_EQ(flat.benchmark, run.benchmark);
        EXPECT_EQ(flat.kind, toString(run.kind));
        EXPECT_EQ(flat.variantLabel, run.variantLabel);
        for (const auto &field : metricFields()) {
            const auto it = flat.values.find(field.name);
            ASSERT_NE(it, flat.values.end()) << field.name;
            EXPECT_EQ(it->second, field.get(run.metrics)) << field.name;
        }
    }
}

TEST(Export, MetricValueLooksUpByName)
{
    Metrics m;
    m.ipc = 1.5;
    m.cycles = 42;
    EXPECT_DOUBLE_EQ(metricValue(m, "ipc"), 1.5);
    EXPECT_DOUBLE_EQ(metricValue(m, "cycles"), 42.0);
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

} // namespace
} // namespace fuse
