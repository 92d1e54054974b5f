/**
 * @file
 * Unit and property tests for the set-associative TagArray.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "cache_reference.hh"
#include "common/rng.hh"

namespace fuse
{
namespace
{

TEST(TagArray, MissThenHitAfterFill)
{
    ReferenceTagArray tags(4, 2, ReplPolicy::LRU);
    EXPECT_EQ(tags.probe(100, 1), nullptr);
    tags.fill(100, 1);
    EXPECT_NE(tags.probe(100, 2), nullptr);
}

TEST(TagArray, FillReportsNoEvictionWhileSetHasRoom)
{
    ReferenceTagArray tags(1, 4, ReplPolicy::LRU);
    for (Addr a = 0; a < 4; ++a)
        EXPECT_FALSE(tags.fill(a, a).has_value());
    EXPECT_EQ(tags.occupancy(), 4u);
}

TEST(TagArray, FillEvictsWhenSetFull)
{
    ReferenceTagArray tags(1, 2, ReplPolicy::LRU);
    tags.fill(1, 1);
    tags.fill(2, 2);
    auto ev = tags.fill(3, 3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line.tag, 1u);  // LRU victim
    EXPECT_EQ(tags.occupancy(), 2u);
}

TEST(TagArray, LruRespectsProbeRecency)
{
    ReferenceTagArray tags(1, 2, ReplPolicy::LRU);
    tags.fill(1, 1);
    tags.fill(2, 2);
    tags.probe(1, 3);  // 1 becomes MRU
    auto ev = tags.fill(4, 4);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line.tag, 2u);
}

TEST(TagArray, SetIndexingSeparatesConflicts)
{
    ReferenceTagArray tags(4, 1, ReplPolicy::LRU);
    // Lines 0..3 land in distinct sets; no evictions.
    for (Addr a = 0; a < 4; ++a)
        EXPECT_FALSE(tags.fill(a, a).has_value());
    // Line 4 conflicts with line 0 (4 % 4 == 0).
    auto ev = tags.fill(4, 10);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line.tag, 0u);
}

TEST(TagArray, InvalidateRemovesLine)
{
    ReferenceTagArray tags(2, 2, ReplPolicy::LRU);
    tags.fill(5, 1);
    auto removed = tags.invalidate(5);
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(removed->tag, 5u);
    EXPECT_EQ(tags.probe(5, 2), nullptr);
    EXPECT_FALSE(tags.invalidate(5).has_value());
}

TEST(TagArray, RefillOfResidentLineIsNotAnEviction)
{
    ReferenceTagArray tags(1, 2, ReplPolicy::LRU);
    tags.fill(7, 1);
    auto ev = tags.fill(7, 2);
    EXPECT_FALSE(ev.has_value());
    EXPECT_EQ(tags.occupancy(), 1u);
}

TEST(TagArray, DirtyMetadataSurvivesEviction)
{
    ReferenceTagArray tags(1, 1, ReplPolicy::LRU);
    CacheLine *line = nullptr;
    tags.fill(9, 1, &line);
    ASSERT_NE(line, nullptr);
    line->dirty = true;
    auto ev = tags.fill(10, 2);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->line.dirty);
}

TEST(TagArray, ClearEmptiesEverything)
{
    ReferenceTagArray tags(2, 2, ReplPolicy::LRU);
    for (Addr a = 0; a < 4; ++a)
        tags.fill(a, a);
    tags.clear();
    EXPECT_EQ(tags.occupancy(), 0u);
}

TEST(TagArray, FullyAssociativeUsesWholeCapacity)
{
    ReferenceTagArray tags(1, 16, ReplPolicy::FIFO);
    // Addresses with arbitrary values all fit (no set conflicts).
    for (Addr a = 1000; a < 1016; ++a)
        EXPECT_FALSE(tags.fill(a, a).has_value());
    EXPECT_EQ(tags.occupancy(), 16u);
}

TEST(TagArray, ForEachValidVisitsExactlyResidentLines)
{
    ReferenceTagArray tags(2, 2, ReplPolicy::LRU);
    tags.fill(1, 1);
    tags.fill(2, 2);
    tags.fill(3, 3);
    std::unordered_set<Addr> seen;
    tags.forEachValid([&seen](const CacheLine &l) { seen.insert(l.tag); });
    EXPECT_EQ(seen, (std::unordered_set<Addr>{1, 2, 3}));
}

/** Property: occupancy never exceeds capacity and a probe after fill
 *  always hits, across a randomized workload. */
TEST(TagArrayProperty, OccupancyBoundedAndFillVisible)
{
    ReferenceTagArray tags(8, 4, ReplPolicy::LRU);
    Rng rng(3);
    for (Cycle t = 0; t < 10000; ++t) {
        Addr a = rng.below(256);
        if (!tags.probe(a, t)) {
            tags.fill(a, t);
            EXPECT_NE(tags.peek(a), nullptr);
        }
        EXPECT_LE(tags.occupancy(), tags.numLines());
    }
}

/** Property: a working set that fits never evicts once warm (LRU). */
TEST(TagArrayProperty, FittingWorkingSetNeverEvictsWhenWarm)
{
    ReferenceTagArray tags(4, 4, ReplPolicy::LRU);
    // 16-line working set == capacity.
    for (Addr a = 0; a < 16; ++a)
        tags.fill(a, a);
    Rng rng(5);
    for (Cycle t = 16; t < 5000; ++t) {
        Addr a = rng.below(16);
        EXPECT_NE(tags.probe(a, t), nullptr) << "line " << a;
    }
}

class TagArrayGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{};

TEST_P(TagArrayGeometry, CapacityIsSetsTimesWays)
{
    auto [sets, ways] = GetParam();
    ReferenceTagArray tags(sets, ways, ReplPolicy::LRU);
    for (Addr a = 0; a < sets * ways; ++a)
        tags.fill(a * sets, a);  // same-set collisions by construction
    EXPECT_LE(tags.occupancy(), sets * ways);
    EXPECT_EQ(tags.numLines(), sets * ways);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagArrayGeometry,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(1u, 512u),
                      std::make_tuple(64u, 4u), std::make_tuple(256u, 2u),
                      std::make_tuple(16u, 8u)));

} // namespace
} // namespace fuse
