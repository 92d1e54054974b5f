/**
 * @file
 * Differential parity tier for the frontend: the scalar decoder and
 * coalescer of tests/frontend_reference.hh are the reference model, and
 * both production paths must reproduce them bit-for-bit — the batch path
 * (nextBatch() / coalesceBatch(): instruction kinds, PCs, types,
 * transaction addresses and coalesced spans) and
 * the memory-instruction path the SM runs (nextMemory() /
 * coalesceSpan(): the compute gap before each memory instruction, then
 * the same fields). Cases cover every PatternKind in isolation
 * (divergence 1/4/8 explicitly) plus real benchmark mixes, driven in the
 * SM's interleaved warp order so pending follow-ups and per-warp RNG
 * streams cross batch and warp-turn boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "frontend_reference.hh"
#include "gpu/coalescer.hh"
#include "workload/benchmarks.hh"

namespace fuse
{
namespace
{

struct KindCase
{
    const char *name;
    BenchmarkSpec spec;
};

/** Single-kind specs covering all six kinds, divergence 1/4/8 explicitly
 *  (same parameters as the pre-batch golden fingerprints in
 *  test_workload.cc). */
std::vector<KindCase>
kindCases()
{
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
    return {
        {"stream", mk("k-stream", st)},
        {"shared-reuse", mk("k-shared", sh)},
        {"private-accum", mk("k-accum", ac)},
        {"random-irregular-d4", mk("k-irr4", ir)},
        {"random-irregular-d1", mk("k-irr1", ir1)},
        {"hot-working-set-d4", mk("k-hot4", ho)},
        {"hot-working-set-d8", mk("k-hot8", ho8)},
        {"stencil", mk("k-stencil", sc)},
    };
}

/** Drive scalar and batch pipelines over @p spec and require bit parity on
 *  every decoded field for @p instructions pops in interleaved warp order. */
void
expectGeneratorParity(const BenchmarkSpec &spec, int instructions,
                      const char *label)
{
    constexpr std::uint32_t kWarps = 48;
    ScalarKernelGenerator scalar(spec, /*sm=*/3, /*num_sms=*/15, kWarps,
                                 /*seed=*/1);
    BatchReader batch(spec, 3, 15, kWarps, 1);

    for (int i = 0; i < instructions; ++i) {
        const WarpId w = static_cast<WarpId>(i % kWarps);
        const WarpInstruction ref = scalar.next(w);
        const InstructionBatch::Decoded &d = batch.pop(w);
        const std::vector<Addr> &addrs = batch.batch(w).addrs;

        ASSERT_EQ(d.isMem, ref.isMem) << label << " @" << i;
        ASSERT_EQ(d.type, ref.type) << label << " @" << i;
        ASSERT_EQ(d.pc, ref.pc) << label << " @" << i;
        const std::uint32_t lanes = d.txEnd - d.txBegin;
        ASSERT_EQ(lanes, ref.transactions.size()) << label << " @" << i;
        ASSERT_EQ(d.lanes, lanes) << label << " @" << i;
        for (std::uint32_t t = 0; t < lanes; ++t)
            ASSERT_EQ(addrs[d.txBegin + t], ref.transactions[t])
                << label << " @" << i << " lane " << t;
    }
}

TEST(BatchParity, EveryPatternKindMatchesScalarGenerator)
{
    for (const KindCase &c : kindCases())
        expectGeneratorParity(c.spec, 100000, c.name);
}

TEST(BatchParity, RealBenchmarkMixesMatchScalarGenerator)
{
    for (const char *name : {"ATAX", "GEMM", "SM", "PVC", "2DCONV", "histo"})
        expectGeneratorParity(benchmarkByName(name), 100000, name);
}

/** Full-pipeline parity: batch decode + coalesceBatch against scalar
 *  decode + the scalar coalescer. */
void
expectCoalescedParity(const BenchmarkSpec &spec, int instructions,
                      const char *label)
{
    constexpr std::uint32_t kWarps = 48;
    ScalarKernelGenerator scalar(spec, 3, 15, kWarps, 1);
    BatchReader batch(spec, 3, 15, kWarps, 1);

    for (int i = 0; i < instructions; ++i) {
        const WarpId w = static_cast<WarpId>(i % kWarps);
        WarpInstruction ref = scalar.next(w);
        const InstructionBatch::Decoded &d = batch.pop(w, /*coalesce=*/true);
        if (!ref.isMem) {
            ASSERT_FALSE(d.isMem) << label << " @" << i;
            continue;
        }
        coalesceReference(ref.transactions);

        const std::vector<Addr> &addrs = batch.batch(w).addrs;
        const std::uint32_t txns = d.txEnd - d.txBegin;
        ASSERT_EQ(txns, ref.transactions.size()) << label << " @" << i;
        for (std::uint32_t t = 0; t < txns; ++t)
            ASSERT_EQ(addrs[d.txBegin + t], ref.transactions[t])
                << label << " @" << i << " txn " << t;
    }
}

TEST(BatchParity, CoalescedSpansAndStatsMatchScalarPipeline)
{
    for (const KindCase &c : kindCases())
        expectCoalescedParity(c.spec, 50000, c.name);
    for (const char *name : {"ATAX", "GEMM", "SM"})
        expectCoalescedParity(benchmarkByName(name), 50000, name);
}

/** What a memory-instruction parity run reached: forced follow-ups
 *  and the longest compute gap. */
struct MemoryParitySeen
{
    std::uint64_t followUps = 0;
    std::uint64_t maxGap = 0;
};

/** Memory-instruction parity: nextMemory() + coalesceSpan() for
 *  @p mem_instructions memory instructions, one per warp turn in the
 *  SM's interleaved warp order, against the scalar decoder, whose
 *  compute instructions before each memory instruction are the expected
 *  gap. */
void
expectMemoryParity(const BenchmarkSpec &spec, int mem_instructions,
                   const char *label, MemoryParitySeen &seen)
{
    constexpr std::uint32_t kWarps = 48;
    ScalarKernelGenerator scalar(spec, 3, 15, kWarps, 1);
    KernelGenerator gen(spec, 3, 15, kWarps, 1);
    MemInstruction instr;

    for (int i = 0; i < mem_instructions; ++i) {
        const WarpId w = static_cast<WarpId>(i % kWarps);
        const bool follow_up = scalar.followUpDue(w);
        std::uint64_t ref_gap = 0;
        WarpInstruction ref = scalar.next(w);
        for (; !ref.isMem; ref = scalar.next(w))
            ++ref_gap;

        const std::uint64_t gap = gen.nextMemory(w, instr);
        ASSERT_EQ(gap, ref_gap) << label << " @" << i;
        if (follow_up) {
            ASSERT_EQ(gap, 0u) << label << " @" << i;
            ++seen.followUps;
        }
        seen.maxGap = std::max(seen.maxGap, gap);
        ASSERT_EQ(instr.pc, ref.pc) << label << " @" << i;
        ASSERT_EQ(instr.type, ref.type) << label << " @" << i;
        ASSERT_EQ(instr.addrs, ref.transactions) << label << " @" << i;

        const auto lanes = static_cast<std::uint32_t>(instr.addrs.size());
        const std::uint32_t txns =
            Coalescer::coalesceSpan(instr.addrs.data(), lanes);
        coalesceReference(ref.transactions);
        ASSERT_EQ(txns, ref.transactions.size()) << label << " @" << i;
        for (std::uint32_t t = 0; t < txns; ++t)
            ASSERT_EQ(instr.addrs[t], ref.transactions[t])
                << label << " @" << i << " txn " << t;
    }
}

TEST(BatchParity, MemoryInstructionsMatchScalarGenerator)
{
    for (const KindCase &c : kindCases()) {
        MemoryParitySeen seen;
        expectMemoryParity(c.spec, 20000, c.name, seen);
        // Store halves of read-modify-writes and second touches of
        // shared-reuse pairs arrived, each with gap 0.
        const PatternKind kind = c.spec.streams[0].kind;
        if (kind == PatternKind::PrivateAccum
            || kind == PatternKind::SharedReuse) {
            EXPECT_GT(seen.followUps, 1000u) << c.name;
        }
    }
    for (const char *name : {"ATAX", "GEMM", "SM", "PVC", "2DCONV", "histo",
                             "pathf", "mri-g", "cfd", "srad_v1"}) {
        MemoryParitySeen seen;
        expectMemoryParity(benchmarkByName(name), 20000, name, seen);
    }
}

TEST(BatchParity, GapsPastOneByteMatchScalarGenerator)
{
    // A sparse stream kernel: its gaps run past 255, where the SM's old
    // one-byte compute credit stopped.
    BenchmarkSpec spec = kindCases()[0].spec;
    spec.name = "k-sparse";
    spec.apki = 0.2;
    MemoryParitySeen seen;
    expectMemoryParity(spec, 5000, "sparse", seen);
    EXPECT_GT(seen.maxGap, 255u);
}

} // namespace
} // namespace fuse
