/**
 * @file
 * Differential tier for the GPU clock. Gpu::run runs an SM only at the
 * cycles it touches the shared memory system, in SM index order, and
 * lets the SM run its compute issues and sleeps on its own in between
 * (Sm::advance up to the cap). The reference model here is the lock-step
 * clock the simulator started from: every SM runs every cycle alone
 * through Sm::advance(now, now + 1), in index order. Both clocks must
 * stop at the same cycle with every statistic of every component
 * byte-equal — idle cycles, stall cycles and the memory system's
 * arbitration outcomes included. The lock-step loop also checks after
 * every cycle that each SM's issue counters agree with its instruction
 * count and its L1D's outcome counts.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cache/cache_bank.hh"
#include "gpu/gpu.hh"
#include "sim/sim_config.hh"

namespace fuse
{
namespace
{

/**
 * One SM's issue counters next to its instruction count and its L1D's
 * outcome counts. Every counter is registered when the SM and its L1D
 * are built, so fetching it here adds nothing to a dump.
 */
struct SmCounters
{
    explicit SmCounters(Sm &sm)
        : sm(sm), compute(sm.stats().scalar("compute_instructions")),
          memory(sm.stats().scalar("mem_instructions")),
          transactions(sm.stats().scalar("l1d_transactions")),
          missed(sm.stats().scalar("l1d_transactions_missed")),
          hits(sm.l1d().stats().scalar("hits")),
          misses(sm.l1d().stats().scalar("misses")),
          bypasses(sm.l1d().stats().scalar("bypasses"))
    {
    }

    /** Each issued instruction was counted as compute or memory, and
     *  each accepted L1D transaction as one hit, miss or bypass of the
     *  L1D (a missed one as a miss or a bypass). */
    bool exact() const
    {
        const double l1d_missed = misses.value() + bypasses.value();
        return compute.value() + memory.value()
                   == static_cast<double>(sm.instructionsIssued())
               && transactions.value() == hits.value() + l1d_missed
               && missed.value() == l1d_missed;
    }

    const Sm &sm;
    const StatGroup::Scalar &compute;
    const StatGroup::Scalar &memory;
    const StatGroup::Scalar &transactions;
    const StatGroup::Scalar &missed;
    const StatGroup::Scalar &hits;
    const StatGroup::Scalar &misses;
    const StatGroup::Scalar &bypasses;
};

/** Run every SM every cycle, in index order, until all are done or the
 *  cap; returns the cycles elapsed, as Gpu::run does. The counters must
 *  be exact after every cycle. */
Cycle
runLockStep(Gpu &gpu)
{
    const Cycle cap = gpu.config().maxCycles;
    std::vector<SmCounters> counters;
    for (const auto &sm : gpu.sms())
        counters.emplace_back(*sm);
    Cycle cycles = 0;
    bool exact = true;
    for (Cycle now = 0; now < cap; ++now) {
        bool all_done = true;
        for (const auto &sm : gpu.sms()) {
            sm->advance(now, now + 1);
            all_done = all_done && sm->done();
        }
        // One report: the first cycle and SM whose counters disagree.
        for (std::size_t i = 0; exact && i < counters.size(); ++i) {
            exact = counters[i].exact();
            EXPECT_TRUE(exact) << "sm" << i << " counters after cycle "
                               << now;
        }
        cycles = now + 1;
        if (all_done)
            break;
    }
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
