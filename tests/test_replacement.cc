/**
 * @file
 * Unit tests for the event-driven replacement engine under both
 * policies (LRU, FIFO): hook semantics, tie breaking, and reset.
 * Bit-exact equivalence with the historical scan-based victim logic is
 * covered separately by tests/test_replacement_parity.cc.
 */

#include <gtest/gtest.h>

#include "cache/replacement.hh"

namespace fuse
{
namespace
{

/** Fill ways 0..n-1 of @p set at cycles 0..n-1 (the usual warm-up
 *  shape). */
void
warmUp(AgeListPolicy &policy, std::uint32_t set, std::uint32_t ways)
{
    for (std::uint32_t w = 0; w < ways; ++w)
        policy.onFill(set, w, w);
}

TEST(Lru, EvictsLeastRecentlyTouched)
{
    AgeListPolicy lru(ReplPolicy::LRU, 1, 4);
    warmUp(lru, 0, 4);
    lru.onHit(0, 3, 5);   // was oldest, now freshest
    lru.onHit(0, 1, 10);
    lru.onHit(0, 0, 50);
    lru.onHit(0, 2, 100); // most recent
    EXPECT_EQ(lru.victim(0), 3u);
}

TEST(Lru, TieBreaksToLowestWay)
{
    AgeListPolicy lru(ReplPolicy::LRU, 1, 4);
    warmUp(lru, 0, 4);
    // Touch every way in the same cycle, in descending way order: the
    // historical timestamp scan picked the lowest way index on ties, so
    // the event order within the cycle must not leak into the choice.
    for (std::uint32_t w = 4; w-- > 0;)
        lru.onHit(0, w, 7);
    EXPECT_EQ(lru.victim(0), 0u);
}

TEST(Lru, VictimChainsThroughEvictions)
{
    AgeListPolicy lru(ReplPolicy::LRU, 1, 2);
    lru.onFill(0, 0, 1);
    lru.onFill(0, 1, 2);
    EXPECT_EQ(lru.victim(0), 0u);
    lru.onFill(0, 0, 3);  // replace the victim
    EXPECT_EQ(lru.victim(0), 1u);
    lru.onHit(0, 1, 4);
    EXPECT_EQ(lru.victim(0), 0u);
}

TEST(Fifo, EvictsOldestInsertion)
{
    AgeListPolicy fifo(ReplPolicy::FIFO, 1, 4);
    fifo.onFill(0, 1, 0);   // first in
    fifo.onFill(0, 0, 10);
    fifo.onFill(0, 2, 20);
    fifo.onFill(0, 3, 30);
    // Touch times must be irrelevant to FIFO.
    fifo.onHit(0, 1, 1000);
    EXPECT_EQ(fifo.victim(0), 1u);
}

TEST(Fifo, RingOrderUnderSequentialFills)
{
    // Warm up 0..3, then keep replacing the victim: the choice must cycle
    // through the ways like the hardware ring cursor.
    AgeListPolicy fifo(ReplPolicy::FIFO, 1, 4);
    warmUp(fifo, 0, 4);
    Cycle now = 10;
    for (std::uint32_t round = 0; round < 12; ++round) {
        const std::uint32_t v = fifo.victim(0);
        EXPECT_EQ(v, round % 4);
        fifo.onFill(0, v, now++);
    }
}

TEST(AgeList, EvictedWayLeavesTheList)
{
    AgeListPolicy lru(ReplPolicy::LRU, 1, 4);
    warmUp(lru, 0, 4);
    lru.onEvict(0, 0);  // invalidate the current LRU way
    // Way 0 is free now; once re-filled it becomes the freshest.
    lru.onFill(0, 0, 100);
    EXPECT_EQ(lru.victim(0), 1u);
}

TEST(AgeList, ResetForgetsEverything)
{
    AgeListPolicy fifo(ReplPolicy::FIFO, 2, 4);
    warmUp(fifo, 0, 4);
    warmUp(fifo, 1, 4);
    fifo.reset();
    fifo.onFill(0, 2, 50);
    fifo.onFill(0, 1, 60);
    EXPECT_EQ(fifo.victim(0), 2u);
}

/** Property: without re-touches, insertion order == recency order, so
 *  FIFO and LRU agree on every victim. */
TEST(Property, FifoEqualsLruWithoutReuse)
{
    AgeListPolicy lru(ReplPolicy::LRU, 1, 8);
    AgeListPolicy fifo(ReplPolicy::FIFO, 1, 8);
    warmUp(lru, 0, 8);
    warmUp(fifo, 0, 8);
    Cycle now = 100;
    for (int round = 0; round < 32; ++round) {
        const std::uint32_t v = lru.victim(0);
        ASSERT_EQ(v, fifo.victim(0));
        lru.onFill(0, v, now);
        fifo.onFill(0, v, now);
        ++now;
    }
}

} // namespace
} // namespace fuse
