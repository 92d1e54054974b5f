/**
 * @file
 * Tests for the GPU model: coalescer, warp scheduler, SM issue/stall
 * behaviour, the top-level Gpu tick loop, and the conservation
 * identities between component statistics.
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu/coalescer.hh"
#include "gpu/gpu.hh"
#include "gpu/scheduler.hh"
#include "sim/sim_config.hh"

namespace fuse
{
namespace
{

TEST(Coalescer, BatchCoalescesEachSpanInPlace)
{
    Coalescer c;
    InstructionBatch batch;
    // Instruction 0: compute (empty span). Instruction 1: 4 lanes on 2
    // lines. Instruction 2: first-touch-order dedupe (300 shares 256's
    // line).
    batch.size = 3;
    batch.instr[0].isMem = false;
    batch.instr[1].isMem = true;
    batch.instr[1].txBegin = 0;
    batch.addrs = {0, 4, 128, 132, /*instr 2:*/ 256, 0, 300};
    batch.instr[1].txEnd = 4;
    batch.instr[1].lanes = 4;
    batch.instr[2].isMem = true;
    batch.instr[2].txBegin = 4;
    batch.instr[2].txEnd = 7;
    batch.instr[2].lanes = 3;

    c.coalesceBatch(batch);

    // Span 1 shrank to its line bases; span 2 starts at its original
    // offset (spans never move — holes stay, consumers walk
    // [txBegin, txEnd) only).
    EXPECT_EQ(batch.instr[1].txEnd, 2u);
    EXPECT_EQ(batch.addrs[0], 0u);
    EXPECT_EQ(batch.addrs[1], 128u);
    EXPECT_EQ(batch.instr[2].txBegin, 4u);
    EXPECT_EQ(batch.instr[2].txEnd, 6u);
    EXPECT_EQ(batch.addrs[4], 256u);
    EXPECT_EQ(batch.addrs[5], 0u);
    // Pre-coalesce widths survive for consumption-time statistics.
    EXPECT_EQ(batch.instr[1].lanes, 4u);
    EXPECT_EQ(batch.instr[2].lanes, 3u);
}

TEST(Scheduler, RoundRobinRotates)
{
    WarpScheduler sched(4);
    Cycle min_ready = 0;
    std::uint32_t w0 = sched.pickReady(0, &min_ready);
    sched.issued(w0);
    std::uint32_t w1 = sched.pickReady(0, &min_ready);
    EXPECT_NE(w0, w1);
}

TEST(Scheduler, SkipsSleepingWarps)
{
    WarpScheduler sched(4);
    const Cycle now = 10;
    sched.onWake(0, now + 5);
    sched.onWake(1, now + 2);
    sched.onWake(3, now + 9);
    // Warp 2 never slept: it is the only one eligible at `now`.
    Cycle min_ready = 0;
    EXPECT_EQ(sched.pickReady(now, &min_ready), 2u);
}

TEST(Scheduler, NoneWhenNothingReadyAndMinReadyIsExact)
{
    WarpScheduler sched(4);
    const Cycle now = 10;
    sched.onWake(0, now + 5);
    sched.onWake(1, now + 2);
    sched.onWake(2, now + 7);
    sched.onWake(3, now + 9);
    Cycle min_ready = 0;
    EXPECT_EQ(sched.pickReady(now, &min_ready), WarpScheduler::kNone);
    EXPECT_EQ(min_ready, now + 2);
    // At the bound, exactly the earliest waker becomes eligible.
    EXPECT_EQ(sched.pickReady(now + 2, &min_ready), 1u);
}

TEST(Scheduler, ReWakeSupersedesEarlierWakeTime)
{
    // The last wake event wins, even when it moves the warp earlier;
    // the superseded heap record must not resurrect the old time.
    WarpScheduler sched(1);
    sched.onWake(0, 50);
    sched.onWake(0, 20);
    Cycle min_ready = 0;
    EXPECT_EQ(sched.pickReady(10, &min_ready), WarpScheduler::kNone);
    EXPECT_EQ(min_ready, 20u);
    EXPECT_EQ(sched.pickReady(20, &min_ready), 0u);
}

GpuConfig
tinyGpu()
{
    SimConfig c = SimConfig::testScale();
    c.gpu.instructionBudgetPerSm = 5000;
    return c.gpu;
}

TEST(Gpu, RunsToCompletion)
{
    Gpu gpu(tinyGpu(), L1DKind::L1Sram, L1DParams{},
            benchmarkByName("2DCONV"));
    Cycle cycles = gpu.run();
    EXPECT_GT(cycles, 0u);
    EXPECT_LT(cycles, tinyGpu().maxCycles);
    EXPECT_EQ(gpu.totalInstructions(),
              tinyGpu().numSms * tinyGpu().instructionBudgetPerSm);
}

TEST(Gpu, IpcBoundedByIssueWidth)
{
    Gpu gpu(tinyGpu(), L1DKind::Oracle, L1DParams{},
            benchmarkByName("2DCONV"));
    gpu.run();
    EXPECT_GT(gpu.ipc(), 0.0);
    EXPECT_LE(gpu.ipc(), 1.0);
}

TEST(Gpu, OracleBeatsBaselineOnMemoryBoundWork)
{
    Gpu base(tinyGpu(), L1DKind::L1Sram, L1DParams{},
             benchmarkByName("ATAX"));
    base.run();
    Gpu oracle(tinyGpu(), L1DKind::Oracle, L1DParams{},
               benchmarkByName("ATAX"));
    oracle.run();
    EXPECT_GT(oracle.ipc(), base.ipc());
    EXPECT_LT(oracle.l1dMissRate(), base.l1dMissRate());
}

TEST(Gpu, DeterministicAcrossRuns)
{
    Gpu a(tinyGpu(), L1DKind::DyFuse, L1DParams{},
          benchmarkByName("MVT"));
    a.run();
    Gpu b(tinyGpu(), L1DKind::DyFuse, L1DParams{},
          benchmarkByName("MVT"));
    b.run();
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_DOUBLE_EQ(a.l1dMissRate(), b.l1dMissRate());
}

TEST(Gpu, StatsAggregationSumsAcrossSms)
{
    Gpu gpu(tinyGpu(), L1DKind::L1Sram, L1DParams{},
            benchmarkByName("2DCONV"));
    gpu.run();
    double manual = 0.0;
    for (const auto &sm : gpu.sms())
        manual += sm->stats().get("l1d_transactions");
    EXPECT_DOUBLE_EQ(gpu.sumSmStat("l1d_transactions"), manual);
    EXPECT_GT(manual, 0.0);
}

TEST(Gpu, StopsAtMaxCyclesCap)
{
    // A budget no SM can retire under the cap: the clock stops at
    // maxCycles and credits every unfinished SM's idle window up to it.
    SimConfig c = SimConfig::testScale();
    c.gpu.maxCycles = 5000;
    Gpu gpu(c.gpu, L1DKind::DyFuse, c.l1d, benchmarkByName("PVC"));
    EXPECT_EQ(gpu.run(), 5000u);
    EXPECT_EQ(gpu.cycles(), 5000u);
    EXPECT_EQ(gpu.totalInstructions(), 5091u);
    EXPECT_DOUBLE_EQ(gpu.sumSmStat("idle_cycles"), 14622.0);
    EXPECT_DOUBLE_EQ(gpu.sumSmStat("mem_wait_cycles"), 14622.0);
}

TEST(Gpu, ZeroBudgetTicksOnceAndRetiresNothing)
{
    // Every SM is done before cycle 0; the clock still ticks each SM
    // once at cycle 0 and reports one elapsed cycle.
    SimConfig c = SimConfig::testScale();
    c.gpu.instructionBudgetPerSm = 0;
    Gpu gpu(c.gpu, L1DKind::DyFuse, c.l1d, benchmarkByName("ATAX"));
    EXPECT_EQ(gpu.run(), 1u);
    EXPECT_EQ(gpu.cycles(), 1u);
    EXPECT_EQ(gpu.totalInstructions(), 0u);
}

TEST(Gpu, MemoryBoundWorkloadWaitsOnMemory)
{
    Gpu gpu(tinyGpu(), L1DKind::L1Sram, L1DParams{},
            benchmarkByName("ATAX"));
    gpu.run();
    const double waits = gpu.sumSmStat("mem_wait_cycles")
                         + gpu.sumSmStat("l1d_stall_cycles");
    EXPECT_GT(waits, 0.0);
}

/**
 * Conservation identities between the statistics of neighbouring
 * components: each count the machine makes is recorded once, by the
 * component that owns it, and every other view of it must agree. They
 * hold exactly, per run, so they also hold at any sweep --threads.
 */
TEST(Gpu, StatIdentitiesHoldForEveryOrganisation)
{
    const SimConfig c = SimConfig::testScale();
    for (const char *benchmark : {"ATAX", "2MM"}) {
        for (L1DKind kind : allL1DKinds()) {
            SCOPED_TRACE(std::string(benchmark) + " " + toString(kind));
            Gpu gpu(c.gpu, kind, c.l1d, benchmarkByName(benchmark));
            gpu.run();
            const StatGroup &hier = gpu.hierarchy().stats();
            L2Cache &l2 = gpu.hierarchy().l2();
            l2.finalizeStats();
            const double misses = gpu.sumL1dStat("misses");
            const double secondary = gpu.sumL1dStat("mshr_secondary");
            const double hits = gpu.sumL1dStat("hits");
            const double bypasses = gpu.sumL1dStat("bypasses");

            // Every primary miss and every bypass is one demand request
            // off chip; writebacks are counted apart from them.
            EXPECT_GT(hier.get("requests"), 0.0);
            EXPECT_EQ(hier.get("read_requests") + hier.get("write_requests"),
                      misses - secondary + bypasses);
            if (kind != L1DKind::Oracle) {   // The oracle has no MSHR.
                EXPECT_EQ(gpu.sumL1dStat("mshr_allocated"),
                          misses - secondary);
            }
            EXPECT_EQ(hier.get("writebacks"),
                      gpu.sumL1dStat("writebacks"));

            // Each request is one L2 bank access; each L2 miss one DRAM
            // fetch; DRAM also serves the L2's dirty evictions.
            EXPECT_EQ(l2.stats().get("hits") + l2.stats().get("misses"),
                      hier.get("requests"));
            EXPECT_EQ(l2.stats().get("misses"), hier.get("dram_requests"));
            EXPECT_EQ(gpu.hierarchy().dram().stats().get("requests"),
                      hier.get("dram_requests") + hier.get("l2_writebacks"));

            // Every accepted L1D transaction has exactly one outcome, and
            // every issued instruction is compute or memory.
            EXPECT_EQ(gpu.sumSmStat("l1d_transactions"),
                      hits + misses + bypasses);
            EXPECT_EQ(static_cast<double>(gpu.totalInstructions()),
                      gpu.sumSmStat("compute_instructions")
                          + gpu.sumSmStat("mem_instructions"));
        }
    }
}

TEST(Gpu, CoalesceCountersCountConsumedInstructions)
{
    // coalesce_instructions, coalesce_transactions and
    // coalesce_lanes_merged reach no Metrics field, export or golden, so
    // a frontend that counted them at decode instead of at consumption
    // would pass every other tier. These sums were taken from the
    // batch-decoding frontend. On histo/Dy-FUSE the instructions exceed
    // mem_instructions: some warps end the run holding a partly issued
    // instruction, which counts as consumed.
    struct Pin
    {
        const char *benchmark;
        L1DKind kind;
        double instructions;
        double transactions;
        double lanesMerged;
        double memInstructions;
    };
    const Pin pins[] = {
        {"ATAX", L1DKind::L1Sram, 69869, 92245, 29881, 69869},
        {"ATAX", L1DKind::DyFuse, 69841, 92216, 29894, 69840},
        {"histo", L1DKind::L1Sram, 12825, 25099, 41, 12825},
        {"histo", L1DKind::DyFuse, 12859, 25208, 41, 12854},
    };
    const SimConfig c = SimConfig::testScale();
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(pin.benchmark) + " " + toString(pin.kind));
        Gpu gpu(c.gpu, pin.kind, c.l1d, benchmarkByName(pin.benchmark));
        gpu.run();
        EXPECT_EQ(gpu.sumSmStat("coalesce_instructions"), pin.instructions);
        EXPECT_EQ(gpu.sumSmStat("coalesce_transactions"), pin.transactions);
        EXPECT_EQ(gpu.sumSmStat("coalesce_lanes_merged"), pin.lanesMerged);
        EXPECT_EQ(gpu.sumSmStat("mem_instructions"), pin.memInstructions);
    }
}

} // namespace
} // namespace fuse
