/**
 * @file
 * Unit tests for the MSHR file: allocation, merging, capacity stalls,
 * and lazy retirement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache_reference.hh"

namespace fuse
{
namespace
{

TEST(Mshr, AllocatesNewMiss)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(4, stats);
    auto r = mshr.access(10, 100);
    EXPECT_EQ(r.kind, MshrResult::Kind::NewMiss);
    ASSERT_NE(r.entry, nullptr);
    EXPECT_EQ(r.entry->readyAt, 100u);
    EXPECT_EQ(mshr.find(10), r.entry);
}

TEST(Mshr, MergesSecondaryMiss)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(4, stats);
    mshr.access(10, 100);
    auto r = mshr.access(10, 120);
    EXPECT_EQ(r.kind, MshrResult::Kind::Merged);
    // Merged requests share the primary's fill time.
    EXPECT_EQ(r.entry->readyAt, 100u);
    EXPECT_EQ(mshr.size(), 1u);
}

TEST(Mshr, FullWhenAllEntriesInFlight)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(2, stats);
    mshr.access(1, 100);
    mshr.access(2, 100);
    auto r = mshr.access(3, 100);
    EXPECT_EQ(r.kind, MshrResult::Kind::Full);
    // But merging into an existing line still works at capacity.
    auto merged = mshr.access(1, 200);
    EXPECT_EQ(merged.kind, MshrResult::Kind::Merged);
}

TEST(Mshr, RetireReadyFreesEntries)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(1, stats);
    mshr.access(1, 10);
    EXPECT_TRUE(mshr.full());
    mshr.retireReady(9);
    EXPECT_TRUE(mshr.full());
    mshr.retireReady(10);
    EXPECT_FALSE(mshr.full());
    EXPECT_EQ(mshr.find(1), nullptr);
}

TEST(Mshr, RetireReadyFreesOnlyElapsedEntries)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(4, stats);
    mshr.access(1, 10);
    mshr.access(2, 20);
    mshr.access(3, 30);
    mshr.retireReady(20);
    EXPECT_EQ(mshr.find(1), nullptr);
    EXPECT_EQ(mshr.find(2), nullptr);
    EXPECT_NE(mshr.find(3), nullptr);
}

TEST(Mshr, StatsCountOnlyAllocations)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(1, stats);
    EXPECT_EQ(mshr.access(1, 10).kind, MshrResult::Kind::NewMiss);
    EXPECT_EQ(mshr.access(1, 10).kind, MshrResult::Kind::Merged);
    EXPECT_EQ(mshr.access(2, 10).kind, MshrResult::Kind::Full);
    EXPECT_DOUBLE_EQ(stats.get("mshr_allocated"), 1.0);
}

TEST(Mshr, EntryPointersSurviveAllocationUpToCapacity)
{
    // The entry array is reserved to capacity, so an allocation never
    // moves the entries already in flight. A reallocation would leave
    // the held pointers dangling, which the sanitized build reports.
    constexpr std::uint32_t kCapacity = 32;
    StatGroup stats("l1d");
    Mshr mshr(kCapacity, stats);
    std::vector<const MshrEntry *> held;
    for (Addr line = 0; line < kCapacity; ++line) {
        mshr.allocate(line, 100 + line);
        held.push_back(mshr.find(line));
        for (Addr l = 0; l <= line; ++l) {
            ASSERT_EQ(held[l], mshr.find(l)) << "line " << l;
            EXPECT_EQ(held[l]->lineAddr, l);
            EXPECT_EQ(held[l]->readyAt, 100 + l);
        }
    }
    EXPECT_TRUE(mshr.full());
}

/** Property: size never exceeds capacity under random traffic. */
TEST(MshrProperty, BoundedSize)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(8, stats);
    for (Cycle t = 0; t < 1000; ++t) {
        mshr.access(t % 23, t + 50);
        if (t % 7 == 0)
            mshr.retireReady(t);
        EXPECT_LE(mshr.size(), mshr.capacity());
    }
}

} // namespace
} // namespace fuse
