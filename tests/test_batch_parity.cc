/**
 * @file
 * Differential parity tier for the batch access pipeline: the scalar
 * decoder and coalescer of tests/frontend_reference.hh are the reference
 * model, and nextBatch() / coalesceBatch() must reproduce them
 * bit-for-bit — instruction kinds, PCs, types, transaction addresses,
 * coalesced spans, and coalesce statistics. Cases cover every PatternKind
 * in isolation (divergence 1/4/8 explicitly) plus real benchmark mixes,
 * driven in the SM's interleaved warp order so pending follow-ups and
 * per-warp RNG streams cross batch boundaries.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/stats.hh"
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

/** Full-pipeline parity: batch decode + coalesceBatch + consumption-time
 *  statistics against scalar decode + the scalar coalescer, whose
 *  statistics are counted here at the same per-instruction points. */
void
expectCoalescedParity(const BenchmarkSpec &spec, int instructions,
                      const char *label)
{
    constexpr std::uint32_t kWarps = 48;
    StatGroup batch_stats("batch");
    Coalescer batch_coalescer(&batch_stats);
    double ref_instructions = 0;
    double ref_transactions = 0;
    double ref_lanes_merged = 0;

    ScalarKernelGenerator scalar(spec, 3, 15, kWarps, 1);
    BatchReader batch(spec, 3, 15, kWarps, 1);

    for (int i = 0; i < instructions; ++i) {
        const WarpId w = static_cast<WarpId>(i % kWarps);
        WarpInstruction ref = scalar.next(w);
        const InstructionBatch::Decoded &d = batch.pop(w, &batch_coalescer);
        if (!ref.isMem) {
            ASSERT_FALSE(d.isMem) << label << " @" << i;
            continue;
        }
        const std::size_t lanes = ref.transactions.size();
        coalesceReference(ref.transactions);
        ref_instructions += 1;
        ref_transactions += ref.transactions.size();
        ref_lanes_merged += lanes - ref.transactions.size();
        batch_coalescer.noteConsumed(d.lanes, d.txEnd - d.txBegin);

        const std::vector<Addr> &addrs = batch.batch(w).addrs;
        const std::uint32_t txns = d.txEnd - d.txBegin;
        ASSERT_EQ(txns, ref.transactions.size()) << label << " @" << i;
        for (std::uint32_t t = 0; t < txns; ++t)
            ASSERT_EQ(addrs[d.txBegin + t], ref.transactions[t])
                << label << " @" << i << " txn " << t;
    }
    // Consumption-time accounting must land on the scalar totals exactly.
    EXPECT_EQ(batch_stats.get("coalesce_instructions"), ref_instructions)
        << label;
    EXPECT_EQ(batch_stats.get("coalesce_transactions"), ref_transactions)
        << label;
    EXPECT_EQ(batch_stats.get("coalesce_lanes_merged"), ref_lanes_merged)
        << label;
}

TEST(BatchParity, CoalescedSpansAndStatsMatchScalarPipeline)
{
    for (const KindCase &c : kindCases())
        expectCoalescedParity(c.spec, 50000, c.name);
    for (const char *name : {"ATAX", "GEMM", "SM"})
        expectCoalescedParity(benchmarkByName(name), 50000, name);
}

} // namespace
} // namespace fuse
