/**
 * @file
 * Unit tests for the associativity-approximation logic (§III-B, §IV-C):
 * CBF-mirrored membership, search-cost accounting, false-positive
 * behaviour, and the 1-2 cycle average search the paper reports.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
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
    TagSearchResult r =
        approx.finish(approx.test(0x1234), /*actually_present=*/false);
    EXPECT_FALSE(r.found);
    // Cold CBF: negative after the single test cycle, no polling.
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_EQ(r.partitionsPolled, 0u);
}

TEST(AssocApprox, InsertedLineIsFoundWithPolling)
{
    AssocApprox approx(paperConfig(), 512);
    approx.insert(0x40);
    TagSearchResult r = approx.finish(approx.test(0x40), true);
    EXPECT_TRUE(r.found);
    EXPECT_GE(r.cycles, 2u);  // CBF test + at least one poll cycle.
    EXPECT_EQ(r.partitionsPolled, 1u);
    EXPECT_FALSE(r.falsePositive);
}

TEST(AssocApprox, RemoveRestoresFastNegative)
{
    AssocApprox approx(paperConfig(), 512);
    approx.insert(0x40);
    approx.remove(0x40);
    TagSearchResult r = approx.finish(approx.test(0x40), false);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.cycles, 1u);
}

TEST(AssocApprox, FalsePositiveCostsPollingButReportsMiss)
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
        TagSearchResult r = approx.finish(approx.test(target), false);
        if (r.falsePositive) {
            EXPECT_FALSE(r.found);
            EXPECT_GE(r.cycles, 2u);
            produced = true;
        }
    }
    EXPECT_TRUE(produced) << "could not provoke a false positive";
    EXPECT_GT(approx.accuracy().falsePositives(), 0u);
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
    for (int i = 0; i < 20000; ++i) {
        if (rng.chance(0.5)) {
            Addr line = resident[rng.below(resident.size())];
            approx.finish(approx.test(line), true);
        } else {
            approx.finish(approx.test(rng.below(1 << 20)), false);
        }
    }
    const StatGroup::Average *cycles =
        approx.stats().findAverage("search_cycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_GE(cycles->mean(), 1.0);
    EXPECT_LE(cycles->mean(), 2.0);
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

/** Property: a search never reports found=false for a line the owner
 *  says is present (CBFs cannot produce false negatives). */
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
            TagSearchResult r =
                approx.finish(approx.test(resident[idx]), true);
            EXPECT_TRUE(r.found);
            if (rng.chance(0.3)) {
                approx.remove(resident[idx]);
                resident.erase(resident.begin()
                               + static_cast<std::ptrdiff_t>(idx));
            }
        }
    }
    EXPECT_EQ(approx.accuracy().falseNegatives(), 0u);
}

} // namespace
} // namespace fuse
