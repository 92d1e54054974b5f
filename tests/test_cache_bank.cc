/**
 * @file
 * Unit tests for CacheBank: device-latency occupancy (the 5-cycle MTJ
 * write), the decoupled fill port, and hit/fill bookkeeping.
 */

#include <gtest/gtest.h>

#include "cache_reference.hh"

namespace fuse
{
namespace
{

TEST(CacheBank, SramReadWriteAreOneCycle)
{
    ReferenceCacheBank bank(makeSramBankConfig(16 * 1024, 2), "t");
    Cycle done = 0;
    bank.fill(1, AccessType::Read, 0, &done);
    bank.access(1, AccessType::Read, 10, &done);
    EXPECT_EQ(done, 11u);
    bank.access(1, AccessType::Write, 20, &done);
    EXPECT_EQ(done, 21u);
}

TEST(CacheBank, SttWritePenaltyFiveCycles)
{
    ReferenceCacheBank bank(makeSttBankConfig(64 * 1024, 2, false), "t");
    Cycle done = 0;
    bank.fill(1, AccessType::Read, 0, &done, nullptr,
              CacheBank::Port::Demand);
    EXPECT_EQ(done, 5u);  // Table I: 5-cycle MTJ write.
    bank.access(1, AccessType::Read, 10, &done);
    EXPECT_EQ(done, 11u);  // STT read is SRAM-comparable.
    bank.access(1, AccessType::Write, 20, &done);
    EXPECT_EQ(done, 25u);
}

TEST(CacheBank, DemandPortBusyWhileWriting)
{
    ReferenceCacheBank bank(makeSttBankConfig(64 * 1024, 2, false), "t");
    Cycle done = 0;
    bank.fill(1, AccessType::Read, 0, &done, nullptr,
              CacheBank::Port::Demand);
    EXPECT_TRUE(bank.busy(2));
    EXPECT_FALSE(bank.busy(5));
    EXPECT_EQ(bank.busyUntil(), 5u);
}

TEST(CacheBank, FillPortDoesNotBlockDemandReads)
{
    ReferenceCacheBank bank(makeSttBankConfig(64 * 1024, 2, false), "t");
    Cycle done = 0;
    bank.fill(1, AccessType::Read, 0, &done);  // default: fill port
    EXPECT_TRUE(bank.fillBusy(2));
    EXPECT_FALSE(bank.busy(2)) << "fills must not occupy the demand port";
    // A demand read of another resident line proceeds immediately.
    bank.fill(2, AccessType::Read, 0, &done);
    bank.access(2, AccessType::Read, 2, &done);
    EXPECT_EQ(done, 3u);
}

TEST(CacheBank, BackToBackWritesSerialise)
{
    ReferenceCacheBank bank(makeSttBankConfig(64 * 1024, 2, false), "t");
    Cycle done = 0;
    bank.fill(1, AccessType::Read, 0, &done, nullptr,
              CacheBank::Port::Demand);
    bank.fill(2, AccessType::Read, 0, &done, nullptr,
              CacheBank::Port::Demand);
    EXPECT_EQ(done, 10u);  // second write waits for the first.
}

TEST(CacheBank, CountsReadsWritesAndFills)
{
    ReferenceCacheBank bank(makeSramBankConfig(16 * 1024, 2), "t");
    Cycle done = 0;
    bank.fill(1, AccessType::Read, 0, &done);
    bank.access(1, AccessType::Read, 1, &done);
    bank.access(1, AccessType::Write, 2, &done);
    EXPECT_EQ(bank.reads(), 1u);
    EXPECT_EQ(bank.writes(), 2u);  // the fill + the write hit.
    EXPECT_DOUBLE_EQ(bank.stats().get("fills"), 1.0);
}

TEST(CacheBank, FullyAssocSttGeometryMatchesTableI)
{
    ReferenceCacheBank bank(makeSttBankConfig(64 * 1024, 2, true), "t");
    // Table I FA/Dy-FUSE: STT set/assoc = 1/512.
    EXPECT_EQ(bank.tags().numSets(), 1u);
    EXPECT_EQ(bank.tags().numWays(), 512u);
}

TEST(CacheBank, SetAssocGeometryMatchesTableI)
{
    ReferenceCacheBank stt(makeSttBankConfig(64 * 1024, 2, false), "t");
    EXPECT_EQ(stt.tags().numSets(), 256u);
    EXPECT_EQ(stt.tags().numWays(), 2u);
    ReferenceCacheBank sram(makeSramBankConfig(16 * 1024, 2), "t");
    EXPECT_EQ(sram.tags().numSets(), 64u);
    EXPECT_EQ(sram.tags().numWays(), 2u);
    ReferenceCacheBank baseline(makeSramBankConfig(32 * 1024, 4), "t");
    EXPECT_EQ(baseline.tags().numSets(), 64u);
    EXPECT_EQ(baseline.tags().numWays(), 4u);
}

TEST(CacheBank, EvictionReportedOnConflict)
{
    BankConfig config = makeSramBankConfig(16 * 1024, 2);
    ReferenceCacheBank bank(config, "t");
    const std::uint32_t sets = config.numSets;
    Cycle done = 0;
    // Three lines in the same set of a 2-way bank evict the oldest.
    bank.fill(0, AccessType::Write, 0, &done);
    bank.fill(sets, AccessType::Read, 1, &done);
    auto ev = bank.fill(2 * sets, AccessType::Read, 2, &done);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line.tag, 0u);
    EXPECT_TRUE(ev->line.dirty);
}

} // namespace
} // namespace fuse
