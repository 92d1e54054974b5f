/**
 * @file
 * Tests for the result store behind `fuse_sweep --store`: canonical
 * point serialization and its committed content-hash goldens, the
 * content-addressed ResultStore (including two processes writing one
 * key), and runWithStore end to end on real test-scale simulations —
 * cold/warm sweeps byte-identical to store-less ones, overlapping specs,
 * variants, fingerprint-keyed invalidation, eviction, mismatched
 * records and shards.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/bitops.hh"
#include "exp/canonical.hh"
#include "exp/export.hh"
#include "exp/result_store.hh"
#include "exp/sweep_runner.hh"

namespace fuse
{
namespace
{

namespace fs = std::filesystem;

/** A fresh temp directory the test owns (removed by ~TempDir). */
struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/fuse_store_test_XXXXXX";
        const char *dir = ::mkdtemp(tmpl);
        if (!dir)
            throw std::runtime_error("mkdtemp failed");
        path = dir;
    }
    ~TempDir() { fs::remove_all(path); }
    std::string path;
};

/** The fixed spec behind the committed hash goldens: base "test" with a
 *  pinned instruction budget, so neither FUSE_FAST nor preset drift in
 *  fermi()/volta() can move the goldens. */
ExperimentSpec
goldenSpec()
{
    ExperimentSpec spec;
    spec.name = "golden";
    spec.base = "test";
    spec.benchmarks = {"ATAX", "BICG"};
    spec.kinds = {L1DKind::L1Sram, L1DKind::DyFuse};
    spec.seed = 7;
    spec.variants = {ConfigVariant{
        "probe", {ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}}};
    return spec;
}

/** Distinct, non-round values in every exported metric field. */
Metrics
syntheticMetrics(double seed)
{
    Metrics m;
    double i = 1.0;
    for (const auto &f : metricFields()) {
        f.set(m, seed + i / 3.0);
        i += 1.0;
    }
    return m;
}

RunResult
syntheticRun(const std::string &benchmark, L1DKind kind, double seed)
{
    RunResult run;
    run.benchmark = benchmark;
    run.kind = kind;
    run.variant = 0;
    run.variantLabel = "";
    run.metrics = syntheticMetrics(seed);
    run.valid = true;
    return run;
}

std::string
jsonOf(const ResultSet &results)
{
    std::ostringstream os;
    writeJson(os, results);
    return os.str();
}

std::string
csvOf(const ResultSet &results)
{
    std::ostringstream os;
    writeCsv(os, results);
    return os.str();
}

/** Pinned fingerprint: store layouts in these tests never depend on the
 *  probe sweep. */
constexpr std::uint64_t kFingerprint = 42;

// ----------------------------------------------------- content hashing

TEST(ContentHash, Fnv1a64KnownVectors)
{
    // Offset basis for the empty string; standard FNV-1a test vector
    // for "a".
    EXPECT_EQ(fnv1a64(std::string()), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64(std::string("a")), 0xaf63dc4c8601ec8cull);
}

TEST(ContentHash, HexDigestIsFixedWidthLowercase)
{
    EXPECT_EQ(hexDigest64(0), "0000000000000000");
    EXPECT_EQ(hexDigest64(0xdeadbeefull), "00000000deadbeef");
    EXPECT_EQ(hexDigest64(~0ull), "ffffffffffffffff");
}

// ----------------------------------------------------- canonical points

TEST(Canonical, ConfigTextIsDeterministic)
{
    const SimConfig config = SimConfig::testScale();
    EXPECT_EQ(canonicalConfig(config), canonicalConfig(config));
    EXPECT_NE(canonicalConfig(config).find("gpu.numSms = 4"),
              std::string::npos);
}

TEST(Canonical, BehaviouralFieldsSplitTheCache)
{
    SimConfig a = SimConfig::testScale();
    SimConfig b = SimConfig::testScale();
    b.l1d.sramAreaFraction = 0.25;
    EXPECT_NE(canonicalConfig(a), canonicalConfig(b));
    b = SimConfig::testScale();
    b.gpu.traceSeed = 99;
    EXPECT_NE(canonicalConfig(a), canonicalConfig(b));
}

TEST(Canonical, PointTextNamesWorkloadAndKind)
{
    const ExperimentSpec spec = goldenSpec();
    const std::string text = canonicalSpecPoint(spec, 0, 0, 0);
    EXPECT_NE(text.find("benchmark = ATAX"), std::string::npos);
    EXPECT_NE(text.find("kind = L1-SRAM"), std::string::npos);
    // The spec's seed reaches the point through the materialised config.
    EXPECT_NE(text.find("gpu.traceSeed = 7"), std::string::npos);
    // The variant override is applied, not merely named.
    EXPECT_NE(text.find("gpu.instructionBudgetPerSm = 2000"),
              std::string::npos);
}

TEST(Canonical, CommittedHashGoldens)
{
    // Committed goldens: these pin the canonical format itself. A
    // mismatch means the cache-key definition changed — every existing
    // store goes cold. If that is intentional, update the goldens AND
    // bump the store record format in exp/result_store.cc.
    const ExperimentSpec spec = goldenSpec();
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 0, 0, 0)),
              "57a14b7af3f6472e");
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 0, 0, 1)),
              "957660b0a0de68e0");
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 1, 0, 0)),
              "57fdabaa57dbc145");
    EXPECT_EQ(hexDigest64(pointContentHash(spec, 1, 0, 1)),
              "644d95d4892f5487");
}

TEST(Canonical, HashGoldensAreFastModeIndependent)
{
    // FUSE_FAST scales preset budgets; the golden spec pins its budget
    // by override, so the hashes must not move.
    const ExperimentSpec spec = goldenSpec();
    const std::uint64_t plain = pointContentHash(spec, 0, 0, 0);
    ::setenv("FUSE_FAST", "1", 1);
    const std::uint64_t fast = pointContentHash(spec, 0, 0, 0);
    ::unsetenv("FUSE_FAST");
    EXPECT_EQ(plain, fast);
}

// ----------------------------------------------------- ResultStore

TEST(ResultStore, PutGetRoundTripsEveryExportedField)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    const RunResult put = syntheticRun("ATAX", L1DKind::DyFuse, 3.0);
    store.put("00000000000000aa", put, "point text\n");

    RunResult got;
    ASSERT_TRUE(store.get("00000000000000aa", got));
    EXPECT_TRUE(got.valid);
    EXPECT_EQ(got.benchmark, "ATAX");
    EXPECT_EQ(got.kind, L1DKind::DyFuse);
    // %.17g round-trips doubles bit for bit.
    for (const auto &f : metricFields())
        EXPECT_EQ(f.get(got.metrics), f.get(put.metrics)) << f.name;
}

TEST(ResultStore, MissesEvictionAndSize)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    RunResult out;
    EXPECT_FALSE(store.get("00000000000000aa", out));
    EXPECT_FALSE(out.valid);
    EXPECT_EQ(store.size(), 0u);

    store.put("00000000000000aa",
              syntheticRun("ATAX", L1DKind::L1Sram, 1.0), "a\n");
    store.put("00000000000000bb",
              syntheticRun("BICG", L1DKind::DyFuse, 2.0), "b\n");
    EXPECT_EQ(store.size(), 2u);

    EXPECT_TRUE(store.evict("00000000000000aa"));
    EXPECT_FALSE(store.evict("00000000000000aa"));
    EXPECT_FALSE(store.get("00000000000000aa", out));
    EXPECT_FALSE(fs::exists(tmp.path + "/store/00000000000000aa.point"));
    EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStore, PersistsAcrossInstances)
{
    TempDir tmp;
    {
        ResultStore store(tmp.path + "/store");
        store.put("00000000000000cc",
                  syntheticRun("MVT", L1DKind::Hybrid, 5.0), "c\n");
    }
    ResultStore reopened(tmp.path + "/store");
    RunResult out;
    EXPECT_TRUE(reopened.get("00000000000000cc", out));
    EXPECT_EQ(out.benchmark, "MVT");
}

TEST(ResultStore, WritesAnAuditSidecar)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    store.put("00000000000000dd",
              syntheticRun("ATAX", L1DKind::L1Sram, 1.0),
              "the canonical text\n");
    std::ifstream is(tmp.path + "/store/00000000000000dd.point");
    std::stringstream buffer;
    buffer << is.rdbuf();
    EXPECT_EQ(buffer.str(), "the canonical text\n");
}

TEST(ResultStore, ConcurrentProcessesPutTheSameKey)
{
    // Two single-threaded sweeps sharing a store put the same keys in the
    // same order. Each must write its own temporary files, or one
    // process's rename fails or commits a file the other is still
    // writing.
    TempDir tmp;
    const ResultStore store(tmp.path + "/store");
    const RunResult run = syntheticRun("ATAX", L1DKind::DyFuse, 3.0);
    // Both children block on the pipe until the parent closes it, so
    // their puts overlap from the first one.
    int start[2];
    ASSERT_EQ(::pipe(start), 0);
    pid_t children[2];
    for (pid_t &child : children) {
        child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            ::close(start[1]);
            char byte;
            while (::read(start[0], &byte, 1) > 0) {
            }
            for (int i = 0; i < 500; ++i)
                store.put("00000000000000aa", run, "point text\n");
            ::_exit(0);
        }
    }
    ::close(start[0]);
    ::close(start[1]);
    for (pid_t child : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        EXPECT_TRUE(WIFEXITED(status)) << "child died";
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    RunResult got;
    ASSERT_TRUE(store.get("00000000000000aa", got));
    for (const auto &f : metricFields())
        EXPECT_EQ(f.get(got.metrics), f.get(run.metrics)) << f.name;
    EXPECT_EQ(store.size(), 1u);
}

TEST(ResultStoreDeathTest, CorruptRecordIsFatalNotAMiss)
{
    TempDir tmp;
    ResultStore store(tmp.path + "/store");
    {
        std::ofstream os(tmp.path + "/store/00000000000000ee.json");
        os << "{\"experiment\": \"something_else\", \"runs\": []}\n";
    }
    RunResult out;
    EXPECT_EXIT({ store.get("00000000000000ee", out); },
                ::testing::ExitedWithCode(1), "not a fuse_serve/v1");
}

// ----------------------------------------------------- runWithStore

/** Sweeps goldenSpec-shaped grids through one store under a pinned
 *  fingerprint, on real test-scale simulations. */
class StoreSweep : public ::testing::TestWithParam<unsigned>
{
  protected:
    ResultSet
    sweep(const ExperimentSpec &spec, StoreStats &stats,
          std::uint64_t fingerprint = kFingerprint,
          std::size_t shard_index = 0, std::size_t shard_count = 1)
    {
        return runWithStore(SweepRunner(GetParam()), spec, store, fingerprint,
                            stats, shard_index, shard_count);
    }

    TempDir tmp;
    ResultStore store{tmp.path + "/store"};
};

TEST_P(StoreSweep, ColdThenWarmMatchTheStoreLessExport)
{
    const ExperimentSpec spec = goldenSpec();
    const ResultSet direct = SweepRunner(GetParam()).run(spec);

    StoreStats cold_stats;
    const ResultSet cold = sweep(spec, cold_stats);
    EXPECT_EQ(cold_stats.cells, 4u);
    EXPECT_EQ(cold_stats.hits, 0u);
    EXPECT_EQ(cold_stats.simulated, 4u);
    EXPECT_EQ(store.size(), 4u);

    SweepRunner runner(GetParam());
    runner.onProgress([](const RunResult &run, std::size_t, std::size_t) {
        ADD_FAILURE() << "warm sweep simulated " << run.benchmark;
    });
    StoreStats warm_stats;
    const ResultSet warm =
        runWithStore(runner, spec, store, kFingerprint, warm_stats);
    EXPECT_EQ(warm_stats.hits, 4u);
    EXPECT_EQ(warm_stats.simulated, 0u);

    EXPECT_EQ(jsonOf(cold), jsonOf(direct));
    EXPECT_EQ(jsonOf(warm), jsonOf(direct));
    EXPECT_EQ(csvOf(cold), csvOf(direct));
    EXPECT_EQ(csvOf(warm), csvOf(direct));
}

TEST_P(StoreSweep, OverlappingSpecsShareOneStore)
{
    ExperimentSpec spec = goldenSpec();
    StoreStats stats;
    sweep(spec, stats);
    EXPECT_EQ(stats.simulated, 4u);

    // BICG's two cells are warm; MVT's two are cold.
    spec.benchmarks = {"BICG", "MVT"};
    const ResultSet second = sweep(spec, stats);
    EXPECT_EQ(stats.cells, 4u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.simulated, 2u);
    EXPECT_EQ(store.size(), 6u);
    EXPECT_EQ(jsonOf(second), jsonOf(SweepRunner(1).run(spec)));
}

TEST_P(StoreSweep, VariantsDecodeIntoTheRightCells)
{
    ExperimentSpec spec = goldenSpec();
    // "alias" materialises to the same machine as "probe", so the two
    // share records; "quarter" changes the machine and gets its own.
    spec.variants.push_back(ConfigVariant{
        "quarter", {ConfigOverride{"l1d.sramAreaFraction", 0.25},
                    ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}});
    spec.variants.push_back(ConfigVariant{
        "alias", {ConfigOverride{"gpu.instructionBudgetPerSm", 2000.0}}});
    const ResultSet direct = SweepRunner(1).run(spec);

    StoreStats stats;
    const ResultSet cold = sweep(spec, stats);
    EXPECT_EQ(stats.simulated, 12u);
    EXPECT_EQ(store.size(), 8u);
    const ResultSet warm = sweep(spec, stats);
    EXPECT_EQ(stats.hits, 12u);
    EXPECT_EQ(stats.simulated, 0u);

    const char *labels[] = {"probe", "quarter", "alias"};
    for (const auto &run : warm.runs()) {
        ASSERT_TRUE(run.valid);
        EXPECT_EQ(run.variantLabel, labels[run.variant]);
    }
    EXPECT_EQ(jsonOf(cold), jsonOf(direct));
    EXPECT_EQ(jsonOf(warm), jsonOf(direct));
}

TEST_P(StoreSweep, FingerprintChangeGoesColdWithoutCrossServing)
{
    const ExperimentSpec spec = goldenSpec();
    StoreStats stats;
    sweep(spec, stats, 42);

    // Same store, "rebuilt" binary: every cell must re-simulate.
    const ResultSet rebuilt = sweep(spec, stats, 43);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.simulated, 4u);
    EXPECT_EQ(store.size(), 8u);
    EXPECT_EQ(storeKey(spec, 0, 0, 0, 42).size(), 16u);
    EXPECT_NE(storeKey(spec, 0, 0, 0, 42), storeKey(spec, 0, 0, 0, 43));
    EXPECT_EQ(jsonOf(rebuilt), jsonOf(SweepRunner(1).run(spec)));
}

TEST_P(StoreSweep, EvictedRecordResimulatesExactlyThatCell)
{
    const ExperimentSpec spec = goldenSpec();
    StoreStats stats;
    const ResultSet cold = sweep(spec, stats);
    ASSERT_TRUE(store.evict(storeKey(spec, 1, 0, 1, kFingerprint)));

    SweepRunner runner(GetParam());
    std::vector<std::string> simulated;
    runner.onProgress([&](const RunResult &run, std::size_t, std::size_t) {
        simulated.push_back(run.benchmark + "/" + toString(run.kind));
    });
    const ResultSet warm =
        runWithStore(runner, spec, store, kFingerprint, stats);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.simulated, 1u);
    EXPECT_EQ(simulated, std::vector<std::string>{"BICG/Dy-FUSE"});
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(jsonOf(warm), jsonOf(cold));
}

TEST_P(StoreSweep, ShardsThroughTheStoreMergeToTheFullGrid)
{
    const ExperimentSpec spec = goldenSpec();
    StoreStats stats;
    ResultSet merged = sweep(spec, stats, kFingerprint, 0, 2);
    EXPECT_EQ(stats.cells, 2u);
    EXPECT_EQ(stats.simulated, 2u);
    merged.merge(sweep(spec, stats, kFingerprint, 1, 2));
    EXPECT_EQ(stats.simulated, 2u);
    EXPECT_EQ(jsonOf(merged), jsonOf(SweepRunner(1).run(spec)));

    // Both halves are in the store now: a warm shard and the whole grid
    // are served without simulating.
    const ResultSet shard = sweep(spec, stats, kFingerprint, 1, 2);
    EXPECT_EQ(stats.cells, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_FALSE(shard.at(0).valid);
    EXPECT_TRUE(shard.at(1).valid);
    const ResultSet full = sweep(spec, stats);
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(jsonOf(full), jsonOf(merged));
}

INSTANTIATE_TEST_SUITE_P(Threads, StoreSweep, ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<unsigned> &info) {
                             return "threads" + std::to_string(info.param);
                         });

TEST(StoreSweepDeathTest, RecordForAnotherCellIsFatal)
{
    // A key collision or a store pointed at the wrong tree must not
    // serve the wrong simulation.
    TempDir tmp;
    const ResultStore store(tmp.path + "/store");
    const ExperimentSpec spec = goldenSpec();
    store.put(storeKey(spec, 0, 0, 0, kFingerprint),
              syntheticRun("MVT", L1DKind::L1Sram, 1.0), "wrong\n");
    StoreStats stats;
    EXPECT_EXIT(
        {
            runWithStore(SweepRunner(1), spec, store, kFingerprint, stats);
        },
        ::testing::ExitedWithCode(1),
        "holds \\(MVT, L1-SRAM\\), sweep cell is \\(ATAX, L1-SRAM\\)");
}

TEST(ResultStore, BinaryFingerprintIsStable)
{
    const std::uint64_t first = binaryFingerprint();
    EXPECT_NE(first, 0u);
    EXPECT_EQ(binaryFingerprint(), first);
}

} // namespace
} // namespace fuse
