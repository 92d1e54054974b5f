/**
 * @file
 * Unit tests for the associativity-approximation logic (§III-B, §IV-C):
 * CBF-mirrored membership, search-cost accounting, false-positive
 * behaviour, and the 1-2 cycle average search the paper reports. The
 * tests keep the ground truth (which lines are resident) themselves.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"
#include "fuse/assoc_approx.hh"

namespace fuse
{
namespace
{

AssocApproxConfig
paperConfig()
{
    return AssocApproxConfig{};  // 128 CBFs, 3 hashes, 16 slots, 4 cmps.
}

TEST(AssocApprox, MissWithoutInsertIsOneCycle)
{
    AssocApprox approx(paperConfig(), 512);
    const AssocApprox::CbfProbe probe = approx.test(0x1234);
    // Cold CBF: negative after the single test cycle, no polling.
    EXPECT_FALSE(probe.positive);
    EXPECT_EQ(approx.finish(probe).cycles, 1u);
}

TEST(AssocApprox, InsertedLineIsFoundWithPolling)
{
    AssocApprox approx(paperConfig(), 512);
    approx.insert(0x40);
    const AssocApprox::CbfProbe probe = approx.test(0x40);
    EXPECT_TRUE(probe.positive);
    const TagSearchResult r = approx.finish(probe);
    EXPECT_GE(r.cycles, 2u);  // CBF test + at least one poll cycle.
    EXPECT_EQ(r.partition, approx.partitionOf(0x40));
}

TEST(AssocApprox, RemoveRestoresFastNegative)
{
    AssocApprox approx(paperConfig(), 512);
    approx.insert(0x40);
    approx.remove(0x40);
    const AssocApprox::CbfProbe probe = approx.test(0x40);
    EXPECT_FALSE(probe.positive);
    EXPECT_EQ(approx.finish(probe).cycles, 1u);
}

TEST(AssocApprox, FalsePositiveCostsPolling)
{
    AssocApprox approx(paperConfig(), 512);
    // Force a false positive: find another line in the same partition and
    // with overlapping CBF slots by brute force.
    const Addr target = 0x1000;
    const std::uint32_t p = approx.partitionOf(target);
    // Insert many other lines of this partition; eventually the CBF
    // saturates enough that 'target' tests positive while absent.
    Rng rng(1);
    bool produced = false;
    for (int i = 0; i < 4000 && !produced; ++i) {
        Addr other = rng.next() & 0xFFFFF;
        if (other == target || approx.partitionOf(other) != p)
            continue;
        approx.insert(other);
        // 'target' was never inserted: a positive test is a false one.
        const AssocApprox::CbfProbe probe = approx.test(target);
        if (probe.positive) {
            EXPECT_GE(approx.finish(probe).cycles, 2u);
            produced = true;
        }
    }
    EXPECT_TRUE(produced) << "could not provoke a false positive";
}

TEST(AssocApprox, AverageSearchWithinPaperBound)
{
    // Paper §III-B: with tuned CBFs, tag search takes 1-2 cycles on
    // average across workloads.
    AssocApprox approx(paperConfig(), 512);
    Rng rng(7);
    std::vector<Addr> resident;
    for (int i = 0; i < 512; ++i) {
        Addr line = rng.below(1 << 20);
        approx.insert(line);
        resident.push_back(line);
    }
    StatGroup::Average cycles;
    for (int i = 0; i < 20000; ++i) {
        const Addr line = rng.chance(0.5)
                              ? resident[rng.below(resident.size())]
                              : rng.below(1 << 20);
        cycles.sample(approx.finish(approx.test(line)).cycles);
    }
    EXPECT_GE(cycles.mean(), 1.0);
    EXPECT_LE(cycles.mean(), 2.0);
}

TEST(AssocApprox, PartitionAssignmentIsStable)
{
    AssocApprox approx(paperConfig(), 512);
    for (Addr line = 0; line < 1000; line += 37)
        EXPECT_EQ(approx.partitionOf(line), approx.partitionOf(line));
}

TEST(AssocApprox, PartitionsReasonablyBalanced)
{
    AssocApprox approx(paperConfig(), 512);
    std::vector<std::uint32_t> counts(paperConfig().numCbfs, 0);
    for (Addr line = 0; line < 12800; ++line)
        ++counts[approx.partitionOf(line)];
    // Expect every partition within 3x of the mean (100).
    for (std::uint32_t c : counts) {
        EXPECT_GT(c, 25u);
        EXPECT_LT(c, 300u);
    }
}

/** Property: a line the owner holds always tests positive (CBFs cannot
 *  produce false negatives), so its search always polls. */
TEST(AssocApproxProperty, NoFalseNegatives)
{
    AssocApprox approx(paperConfig(), 512);
    Rng rng(11);
    std::vector<Addr> resident;
    for (int i = 0; i < 5000; ++i) {
        if (rng.chance(0.5) && resident.size() < 512) {
            Addr line = rng.below(1 << 18);
            approx.insert(line);
            resident.push_back(line);
        } else if (!resident.empty()) {
            std::size_t idx = rng.below(resident.size());
            const AssocApprox::CbfProbe probe = approx.test(resident[idx]);
            ASSERT_TRUE(probe.positive) << "false negative for resident "
                                        << resident[idx];
            EXPECT_GE(approx.finish(probe).cycles, 2u);
            if (rng.chance(0.3)) {
                approx.remove(resident[idx]);
                resident.erase(resident.begin()
                               + static_cast<std::ptrdiff_t>(idx));
            }
        }
    }
    for (const Addr line : resident)
        EXPECT_TRUE(approx.test(line).positive) << "line " << line;
}

} // namespace
} // namespace fuse
