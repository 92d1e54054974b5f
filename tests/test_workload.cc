/**
 * @file
 * Unit tests for the workload subsystem: pattern cursors, the benchmark
 * table (Table II coverage), and the kernel generator's determinism and
 * statistical properties (APKI, write mix, read-level structure), all
 * read through the batch path the simulator runs. The trace
 * fingerprints pin that path and the scalar reference model alike.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "frontend_reference.hh"
#include "workload/benchmarks.hh"
#include "workload/patterns.hh"

namespace fuse
{
namespace
{

TEST(Benchmarks, AllTwentyOneTableIIWorkloadsPresent)
{
    const auto &all = allBenchmarks();
    EXPECT_EQ(all.size(), 21u);
    for (const char *name :
         {"2DCONV", "2MM", "3MM", "ATAX", "BICG", "FDTD", "GEMM",
          "GESUM", "MVT", "SYR2K", "cfd", "gaussian", "pathf", "srad_v1",
          "histo", "mri-g", "II", "PVC", "PVR", "SS", "SM"}) {
        EXPECT_NO_FATAL_FAILURE(benchmarkByName(name)) << name;
    }
}

TEST(Benchmarks, SuitesCoverAllFour)
{
    std::unordered_set<int> suites;
    for (const auto &b : allBenchmarks())
        suites.insert(static_cast<int>(b.suite));
    EXPECT_EQ(suites.size(), 4u);
}

TEST(Benchmarks, StreamWeightsArePositive)
{
    for (const auto &b : allBenchmarks()) {
        ASSERT_FALSE(b.streams.empty()) << b.name;
        for (const auto &s : b.streams)
            EXPECT_GT(s.weight, 0.0) << b.name;
    }
}

TEST(Benchmarks, MemProbabilityBounded)
{
    for (const auto &b : allBenchmarks()) {
        EXPECT_GT(b.memProbability(), 0.0) << b.name;
        EXPECT_LE(b.memProbability(), 0.85) << b.name;
    }
}

TEST(Benchmarks, MotivationAndSensitivitySubsetsResolve)
{
    for (const auto &n : motivationWorkloads())
        benchmarkByName(n);
    for (const auto &n : sensitivityWorkloads())
        benchmarkByName(n);
    EXPECT_EQ(motivationWorkloads().size(), 7u);
    EXPECT_EQ(sensitivityWorkloads().size(), 9u);
}

TEST(Generator, DeterministicAcrossInstances)
{
    const auto &spec = benchmarkByName("ATAX");
    BatchReader a(spec, 0, 15, 48, 7);
    BatchReader b(spec, 0, 15, 48, 7);
    for (int i = 0; i < 2000; ++i) {
        WarpId w = static_cast<WarpId>(i % 48);
        WarpInstruction ia = a.next(w);
        WarpInstruction ib = b.next(w);
        ASSERT_EQ(ia.isMem, ib.isMem);
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.transactions, ib.transactions);
    }
}

TEST(Generator, DifferentSeedsDiverge)
{
    const auto &spec = benchmarkByName("ATAX");
    BatchReader a(spec, 0, 15, 48, 1);
    BatchReader b(spec, 0, 15, 48, 2);
    int diffs = 0;
    for (int i = 0; i < 2000; ++i) {
        WarpInstruction ia = a.next(0);
        WarpInstruction ib = b.next(0);
        diffs += (ia.isMem != ib.isMem)
                 || (ia.transactions != ib.transactions);
    }
    EXPECT_GT(diffs, 0);
}

TEST(Generator, TransactionsAreLineAligned)
{
    const auto &spec = benchmarkByName("GEMM");
    BatchReader reader(spec, 3, 15, 48, 1);
    for (int i = 0; i < 5000; ++i) {
        WarpInstruction wi = reader.next(static_cast<WarpId>(i % 48));
        for (Addr a : wi.transactions)
            EXPECT_EQ(a % kLineSize, 0u);
    }
}

TEST(Generator, ApkiRoughlyMatchesSpec)
{
    // Measured transactions per kilo-thread-instruction should land near
    // the Table II target for a mid-APKI workload.
    const auto &spec = benchmarkByName("MVT");  // APKI 64
    BatchReader reader(spec, 0, 15, 48, 1);
    std::uint64_t instrs = 0;
    std::uint64_t transactions = 0;
    for (int i = 0; i < 200000; ++i) {
        WarpInstruction wi = reader.next(static_cast<WarpId>(i % 48));
        ++instrs;
        transactions += wi.transactions.size();
    }
    const double apki = 1000.0 * static_cast<double>(transactions)
                        / (static_cast<double>(instrs) * kWarpSize);
    EXPECT_NEAR(apki, spec.apki, spec.apki * 0.3);
}

TEST(Generator, AccumPairsHitTheSameLine)
{
    // Every write to a PrivateAccum stream must be preceded by a load of
    // the same line (read-modify-write).
    BenchmarkSpec spec;
    spec.name = "accum-only";
    spec.apki = 200;
    StreamSpec s;
    s.kind = PatternKind::PrivateAccum;
    s.weight = 1.0;
    s.writeProb = 1.0;
    s.footprintLines = 4096;
    spec.streams = {s};

    BatchReader reader(spec, 0, 1, 4, 1);
    std::unordered_map<WarpId, Addr> last_load;
    for (int i = 0; i < 4000; ++i) {
        WarpId w = static_cast<WarpId>(i % 4);
        WarpInstruction wi = reader.next(w);
        if (!wi.isMem)
            continue;
        ASSERT_EQ(wi.transactions.size(), 1u);
        if (wi.type == AccessType::Read) {
            last_load[w] = wi.transactions[0];
        } else {
            ASSERT_TRUE(last_load.count(w));
            EXPECT_EQ(wi.transactions[0], last_load[w]);
        }
    }
}

TEST(Generator, StreamPatternNeverRevisitsWithHugeFootprint)
{
    BenchmarkSpec spec;
    spec.name = "stream-only";
    spec.apki = 100;
    StreamSpec s;
    s.kind = PatternKind::Stream;
    s.weight = 1.0;
    s.footprintLines = 1u << 22;
    spec.streams = {s};

    BatchReader reader(spec, 0, 1, 2, 1);
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 20000; ++i) {
        WarpInstruction wi = reader.next(static_cast<WarpId>(i % 2));
        if (!wi.isMem)
            continue;
        for (Addr a : wi.transactions)
            EXPECT_TRUE(seen.insert(lineAddr(a)).second)
                << "dead stream revisited a line";
    }
}

TEST(Generator, HotWorkingSetBoundedPerWarp)
{
    BenchmarkSpec spec;
    spec.name = "hot-only";
    spec.apki = 100;
    StreamSpec s;
    s.kind = PatternKind::HotWorkingSet;
    s.weight = 1.0;
    s.clusterLines = 10;
    s.churnProb = 0.0;  // no churn: the cluster is fixed
    s.divergence = 4;
    spec.streams = {s};

    BatchReader reader(spec, 0, 1, 1, 1);
    std::unordered_set<Addr> lines;
    for (int i = 0; i < 4000; ++i) {
        WarpInstruction wi = reader.next(0);
        if (!wi.isMem)
            continue;
        for (Addr a : wi.transactions)
            lines.insert(lineAddr(a));
    }
    EXPECT_LE(lines.size(), 10u);
}

TEST(Patterns, StencilTouchesNeighbours)
{
    StreamSpec s;
    s.kind = PatternKind::Stencil;
    s.footprintLines = 4096;
    PatternCursor cursor;
    Rng rng(1);
    std::vector<Addr> out;
    for (int i = 0; i < 9; ++i)
        cursor.generate(s, 0, 0, 1, rng, out);
    ASSERT_EQ(out.size(), 9u);
    // Nine accesses cover only ~4 distinct lines (3 reuses each).
    std::unordered_set<Addr> distinct(out.begin(), out.end());
    EXPECT_LE(distinct.size(), 5u);
}

TEST(Patterns, KindNamesAreStable)
{
    EXPECT_STREQ(toString(PatternKind::Stream), "stream");
    EXPECT_STREQ(toString(PatternKind::HotWorkingSet), "hot-working-set");
    EXPECT_STREQ(toString(PatternKind::Stencil), "stencil");
}

namespace
{

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
    }
    return h;
}

/** FNV-1a over 60000 instructions of @p source (SM 3 of 15, 48 warps,
 *  seed 1, warp = i % 48): instruction kind, type, PC, transaction count
 *  and every transaction address. */
template <typename Source>
std::uint64_t
traceFingerprint(const BenchmarkSpec &spec)
{
    Source source(spec, /*sm=*/3, /*num_sms=*/15, /*warps_per_sm=*/48,
                  /*seed=*/1);
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < 60000; ++i) {
        const WarpInstruction instr =
            source.next(static_cast<WarpId>(i % 48));
        h = fnv1a(h, instr.isMem ? 1 : 0);
        h = fnv1a(h, instr.type == AccessType::Write ? 1 : 0);
        h = fnv1a(h, instr.pc);
        h = fnv1a(h, instr.transactions.size());
        for (Addr a : instr.transactions)
            h = fnv1a(h, a);
    }
    return h;
}

} // namespace

TEST(Generator, TracesAreByteIdenticalToPreOptimizationGoldens)
{
    // The trace-generation trim (hoisted log(1 - p), incremental modular
    // phases in the pattern cursors) must not move a single address: every
    // figure's byte-identity rests on the traces. These fingerprints were
    // captured from the pre-optimization scalar generator over workloads
    // covering all six pattern kinds; any change to instruction kinds,
    // PCs, types, or transaction addresses moves the hash. Both the
    // scalar reference model and the batch path must land on them.
    struct Golden
    {
        const char *benchmark;
        std::uint64_t hash;
    };
    const Golden goldens[] = {
        {"2DCONV", 0xD8ADF923CCCB6D17ull},
        {"ATAX", 0xEE2F0D7CEFA19DE3ull},
        {"GEMM", 0x7446384BDA948F89ull},
        {"PVC", 0xCDF076F636AB47BCull},
        {"II", 0x5718F9FF912913E4ull},
        {"SM", 0x6FEFF2DA82FBCB70ull},
        {"srad_v1", 0x6B0C32CBDEBA8662ull},
        {"pathf", 0xD13C2B9A0360C61Cull},
    };
    for (const Golden &golden : goldens) {
        const BenchmarkSpec &spec = benchmarkByName(golden.benchmark);
        EXPECT_EQ(traceFingerprint<ScalarKernelGenerator>(spec), golden.hash)
            << golden.benchmark << " (scalar)";
        EXPECT_EQ(traceFingerprint<BatchReader>(spec), golden.hash)
            << golden.benchmark << " (batch)";
    }
}

TEST(Generator, SingleKindTracesMatchPreBatchGoldens)
{
    // Kind-level trace pinning for the batch pipeline: one golden per
    // PatternKind in isolation, with divergence 1/4/8 covered explicitly
    // (the benchmark-mix goldens above weight the kinds unevenly). The
    // fingerprints were captured from the pre-batch scalar generator;
    // both the scalar reference model and the batch path must land on
    // them.
    auto mk = [](const char *name, StreamSpec s) {
        BenchmarkSpec b;
        b.name = name;
        b.apki = 60;
        b.streams = {s};
        return b;
    };
    StreamSpec st;
    st.kind = PatternKind::Stream;
    st.footprintLines = 1u << 18;
    st.strideLines = 3;
    st.writeProb = 0.3;
    StreamSpec sh;
    sh.kind = PatternKind::SharedReuse;
    sh.footprintLines = 420;
    StreamSpec ac;
    ac.kind = PatternKind::PrivateAccum;
    ac.footprintLines = 640;
    ac.writeProb = 0.5;
    StreamSpec ir;
    ir.kind = PatternKind::RandomIrregular;
    ir.footprintLines = 4096;
    ir.divergence = 4;
    ir.writeProb = 0.2;
    StreamSpec ho;
    ho.kind = PatternKind::HotWorkingSet;
    ho.divergence = 4;
    ho.clusterLines = 10;
    ho.churnProb = 0.08;
    ho.strideLines = 16;
    ho.footprintLines = 1u << 21;
    StreamSpec sc;
    sc.kind = PatternKind::Stencil;
    sc.footprintLines = 12288;
    sc.writeProb = 0.2;
    StreamSpec ir1 = ir;
    ir1.divergence = 1;
    StreamSpec ho8 = ho;
    ho8.divergence = 8;

    struct Golden
    {
        const char *label;
        BenchmarkSpec spec;
        std::uint64_t hash;
    };
    const Golden goldens[] = {
        {"stream", mk("k-stream", st), 0x7752C14701F0CB4Eull},
        {"shared-reuse", mk("k-shared", sh), 0x70FA39C56DA5EF18ull},
        {"private-accum", mk("k-accum", ac), 0x8BF884ED50F7C628ull},
        {"random-irregular-d4", mk("k-irr4", ir), 0xB2EBE1A83147C2A6ull},
        {"random-irregular-d1", mk("k-irr1", ir1), 0xDBDB561EE650B0E7ull},
        {"hot-working-set-d4", mk("k-hot4", ho), 0x63F85EF01DF456BAull},
        {"hot-working-set-d8", mk("k-hot8", ho8), 0x46424344DD31D504ull},
        {"stencil", mk("k-stencil", sc), 0x17D3E68C79990C04ull},
    };
    for (const Golden &golden : goldens) {
        EXPECT_EQ(traceFingerprint<ScalarKernelGenerator>(golden.spec),
                  golden.hash)
            << golden.label << " (scalar)";
        EXPECT_EQ(traceFingerprint<BatchReader>(golden.spec), golden.hash)
            << golden.label << " (batch)";
    }
}

} // namespace
} // namespace fuse
