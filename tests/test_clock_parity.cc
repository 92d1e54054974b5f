/**
 * @file
 * Differential tier for the GPU clock. Gpu::run ticks an SM only at the
 * cycles it touches the shared memory system, in SM index order, and
 * lets the SM run its compute issues and sleeps on its own in between
 * (Sm::tickPrivate). The reference model here is the lock-step clock the
 * simulator started from: every SM ticks every cycle through Sm::tick,
 * in index order. Both clocks must stop at the same cycle with every
 * statistic of every component byte-equal — idle cycles, stall cycles
 * and the memory system's arbitration outcomes included.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cache/cache_bank.hh"
#include "gpu/gpu.hh"
#include "sim/sim_config.hh"

namespace fuse
{
namespace
{

/** Tick every SM every cycle, in index order, until all are done or the
 *  cap; returns the cycles elapsed, as Gpu::run does. */
Cycle
runLockStep(Gpu &gpu)
{
    const Cycle cap = gpu.config().maxCycles;
    Cycle cycles = 0;
    for (Cycle now = 0; now < cap; ++now) {
        bool all_done = true;
        for (const auto &sm : gpu.sms()) {
            sm->tick(now);
            all_done = all_done && sm->done();
        }
        cycles = now + 1;
        if (all_done)
            break;
    }
    for (const auto &sm : gpu.sms())
        sm->flushIssueStats();
    return cycles;
}

/** Every statistic of a finished run: each SM's with its L1D's, banks'
 *  and predictor's, then the NoC's, the hierarchy's, L2's and DRAM's. */
std::string
dumpAll(Gpu &gpu)
{
    std::ostringstream os;
    for (const auto &sm : gpu.sms()) {
        sm->stats().dump(os);
        const L1DCache &l1d = sm->l1d();
        l1d.stats().dump(os);
        for (const CacheBank *bank : l1d.banks())
            bank->stats().dump(os);
        if (const StatGroup *predictor = l1d.predictorStats())
            predictor->dump(os);
    }
    MemoryHierarchy &mem = gpu.hierarchy();
    mem.noc().stats().dump(os);
    mem.stats().dump(os);
    mem.l2().finalizeStats();
    mem.l2().stats().dump(os);
    mem.dram().stats().dump(os);
    return os.str();
}

/** The first line where two dumps differ, for a readable failure. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream sa(a);
    std::istringstream sb(b);
    std::string la;
    std::string lb;
    for (;;) {
        const bool more_a = static_cast<bool>(std::getline(sa, la));
        const bool more_b = static_cast<bool>(std::getline(sb, lb));
        if (!more_a && !more_b)
            return "";
        if (!more_a || !more_b || la != lb)
            return "next-event: '" + la + "', lock-step: '" + lb + "'";
    }
}

/** Run one configuration on both clocks and compare everything. */
void
expectSameRun(const GpuConfig &config, L1DKind kind, const L1DParams &l1d,
              const char *benchmark)
{
    SCOPED_TRACE(std::string(benchmark) + " " + toString(kind));
    const BenchmarkSpec &spec = benchmarkByName(benchmark);
    Gpu event(config, kind, l1d, spec);
    Gpu lock(config, kind, l1d, spec);
    EXPECT_EQ(event.run(), runLockStep(lock));
    EXPECT_EQ(event.totalInstructions(), lock.totalInstructions());
    const std::string a = dumpAll(event);
    const std::string b = dumpAll(lock);
    EXPECT_EQ(firstDifference(a, b), "");
    EXPECT_GT(a.size(), 0u);
}

TEST(ClockParity, EveryOrganisationAndWorkloadMatchesLockStep)
{
    // ATAX and 2MM are memory-bound (MSHR-full herds, multi-transaction
    // instructions), pathf is compute-bound (long private runs), and
    // histo keeps the tag queue of the FUSE organisations busy.
    const SimConfig c = SimConfig::testScale();
    for (const char *benchmark : {"ATAX", "2MM", "pathf", "histo"}) {
        for (L1DKind kind : allL1DKinds())
            expectSameRun(c.gpu, kind, c.l1d, benchmark);
    }
}

TEST(ClockParity, CappedRunMatchesLockStep)
{
    // No SM retires its budget under the cap: private runs and sleeps
    // must stop at it, crediting the same idle cycles.
    SimConfig c = SimConfig::testScale();
    c.gpu.maxCycles = 5000;
    expectSameRun(c.gpu, L1DKind::DyFuse, c.l1d, "PVC");
}

TEST(ClockParity, ZeroBudgetRunMatchesLockStep)
{
    SimConfig c = SimConfig::testScale();
    c.gpu.instructionBudgetPerSm = 0;
    expectSameRun(c.gpu, L1DKind::DyFuse, c.l1d, "ATAX");
}

} // namespace
} // namespace fuse
