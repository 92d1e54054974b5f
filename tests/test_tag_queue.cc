/**
 * @file
 * Unit tests for the tag queue (§IV-A): FIFO order, capacity, and flush
 * semantics.
 */

#include <gtest/gtest.h>

#include "fuse/tag_queue.hh"

namespace fuse
{
namespace
{

TagQueueEntry
entry(TagCommand cmd, Addr line)
{
    return {cmd, line};
}

TEST(TagQueue, StartsEmpty)
{
    StatGroup stats("l1d");
    TagQueue q(16, stats);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.front(), nullptr);
}

TEST(TagQueue, FifoOrder)
{
    StatGroup stats("l1d");
    TagQueue q(16, stats);
    q.push(entry(TagCommand::Read, 1));
    q.push(entry(TagCommand::Migrate, 2));
    q.push(entry(TagCommand::Fill, 3));
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(q.front()->lineAddr, 1u);
    q.pop();
    EXPECT_EQ(q.front()->lineAddr, 2u);
    EXPECT_EQ(q.front()->command, TagCommand::Migrate);
    q.pop();
    EXPECT_EQ(q.front()->lineAddr, 3u);
    q.pop();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(stats.get("tag_queue_pushes"), 3.0);
}

TEST(TagQueue, FlushDropsAllAndCounts)
{
    StatGroup stats("l1d");
    TagQueue q(16, stats);
    for (Addr a = 0; a < 5; ++a)
        q.push(entry(TagCommand::Read, a));
    q.flush();
    EXPECT_TRUE(q.empty());
    EXPECT_DOUBLE_EQ(stats.get("tag_queue_flushes"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("tag_queue_flushed_entries"), 5.0);
}

TEST(TagQueue, PopOnEmptyIsSafe)
{
    StatGroup stats("l1d");
    TagQueue q(4, stats);
    q.pop();  // must not crash
    EXPECT_TRUE(q.empty());
}

TEST(TagQueue, CapacityMatchesTableI)
{
    StatGroup stats("l1d");
    TagQueue q(16, stats);
    for (Addr a = 0; a < 16; ++a) {
        EXPECT_FALSE(q.full());
        q.push(entry(TagCommand::Read, a));
    }
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.size(), 16u);
}

TEST(TagQueueDeathTest, PushIntoAFullQueueDies)
{
    // Every owner checks full() first: a push past capacity is a bug.
    StatGroup stats("l1d");
    TagQueue q(2, stats);
    q.push(entry(TagCommand::Read, 1));
    q.push(entry(TagCommand::Read, 2));
    EXPECT_DEATH(q.push(entry(TagCommand::Read, 3)), "full tag queue");
}

} // namespace
} // namespace fuse
