/**
 * @file
 * Unit tests for the swap buffer (§IV-A): park/release semantics, the
 * snoop path, capacity, and the residents listing used after tag-queue
 * flushes.
 */

#include <gtest/gtest.h>

#include "fuse/swap_buffer.hh"

namespace fuse
{
namespace
{

CacheLine
line(Addr tag, bool dirty = false)
{
    CacheLine l;
    l.tag = tag;
    l.valid = true;
    l.dirty = dirty;
    return l;
}

TEST(SwapBuffer, PushFindRelease)
{
    StatGroup stats("l1d");
    SwapBuffer buf(3, stats);
    buf.push(line(7, true));
    CacheLine *parked = buf.find(7);
    ASSERT_NE(parked, nullptr);
    EXPECT_TRUE(parked->dirty);
    auto released = buf.release(7);
    ASSERT_TRUE(released.has_value());
    EXPECT_EQ(released->tag, 7u);
    EXPECT_EQ(buf.find(7), nullptr);
    EXPECT_DOUBLE_EQ(stats.get("swap_buffer_pushes"), 1.0);
}

TEST(SwapBuffer, FullAtCapacity)
{
    StatGroup stats("l1d");
    SwapBuffer buf(3, stats);
    buf.push(line(1));
    buf.push(line(2));
    EXPECT_FALSE(buf.full());
    buf.push(line(3));
    EXPECT_TRUE(buf.full());
}

TEST(SwapBufferDeathTest, PushIntoAFullBufferDies)
{
    // Every owner checks full() first: a push past capacity is a bug.
    StatGroup stats("l1d");
    SwapBuffer buf(1, stats);
    buf.push(line(1));
    EXPECT_DEATH(buf.push(line(2)), "full swap buffer");
}

TEST(SwapBuffer, SnoopPathReadsParkedLine)
{
    StatGroup stats("l1d");
    SwapBuffer buf(3, stats);
    buf.push(line(42));
    // A read during migration hits the buffer (Fig. 10's coherence path).
    CacheLine *parked = buf.find(42);
    ASSERT_NE(parked, nullptr);
    ++parked->readCount;
    EXPECT_EQ(buf.find(42)->readCount, 1u);
}

TEST(SwapBuffer, ReleaseMissingReturnsNothing)
{
    StatGroup stats("l1d");
    SwapBuffer buf(3, stats);
    EXPECT_FALSE(buf.release(5).has_value());
}

TEST(SwapBuffer, ResidentsListsParkedLines)
{
    StatGroup stats("l1d");
    SwapBuffer buf(3, stats);
    buf.push(line(10));
    buf.push(line(20));
    auto residents = buf.residents();
    ASSERT_EQ(residents.size(), 2u);
    EXPECT_EQ(residents[0], 10u);
    EXPECT_EQ(residents[1], 20u);
}

TEST(SwapBuffer, ReleaseFreesCapacity)
{
    StatGroup stats("l1d");
    SwapBuffer buf(1, stats);
    buf.push(line(1));
    EXPECT_TRUE(buf.full());
    buf.release(1);
    EXPECT_FALSE(buf.full());
    buf.push(line(2));
    EXPECT_NE(buf.find(2), nullptr);
}

} // namespace
} // namespace fuse
