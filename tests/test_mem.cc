/**
 * @file
 * Unit tests for the off-chip substrate: DRAM timing (row hits vs
 * conflicts, channel contention, FR-FCFS window), the banked L2, the
 * butterfly interconnect, and the MemoryHierarchy round trip.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "mem/hierarchy.hh"
#include "mem/interconnect.hh"
#include "mem/l2cache.hh"

namespace fuse
{
namespace
{

DramConfig
plainDram()
{
    DramConfig c;
    c.reorderWindowRows = 1;  // pure open-row for timing determinism
    return c;
}

TEST(Dram, RowHitFasterThanConflict)
{
    Dram dram(plainDram());
    // Same channel+row: lines interleave by channel, rows span 16 lines.
    Cycle first = dram.service(0, false, 0);
    Cycle hit = dram.service(6, false, first);  // line 6 % 6ch = ch0,
                                                // same channel-line row
    Cycle hit_latency = hit - first;
    // A far-away line in the same channel/bank but different row.
    Dram dram2(plainDram());
    Cycle a = dram2.service(0, false, 0);
    // channel 0, different row: channel_line jumps by lines_per_row.
    Cycle conflict = dram2.service(6 * 16 * 8, false, a);
    Cycle conflict_latency = conflict - a;
    EXPECT_LT(hit_latency, conflict_latency);
}

TEST(Dram, StatsClassifyRowOutcomes)
{
    Dram dram(plainDram());
    dram.service(0, false, 0);     // closed bank
    dram.service(6, false, 100);   // same row (channel 0, next line)
    EXPECT_DOUBLE_EQ(dram.stats().get("row_closed"), 1.0);
    EXPECT_DOUBLE_EQ(dram.stats().get("row_hits"), 1.0);
}

TEST(Dram, ChannelInterleavesByLine)
{
    Dram dram(plainDram());
    EXPECT_EQ(dram.channelOf(0), 0u);
    EXPECT_EQ(dram.channelOf(1), 1u);
    EXPECT_EQ(dram.channelOf(6), 0u);
}

TEST(Dram, ChannelBusSerialisesBursts)
{
    DramConfig config = plainDram();
    Dram dram(config);
    // Two requests to the same channel, different banks, same instant:
    // the data bursts must not overlap on the channel bus.
    Cycle a = dram.service(0, false, 0);
    Cycle b = dram.service(6 * 16, false, 0);  // ch0, different bank/row
    EXPECT_GE(b > a ? b - a : a - b, config.burstCycles);
}

TEST(Dram, ReorderWindowTurnsConflictsIntoHits)
{
    DramConfig narrow = plainDram();
    DramConfig wide = plainDram();
    wide.reorderWindowRows = 8;
    Dram d_narrow(narrow);
    Dram d_wide(wide);
    // Interleave two rows of the same bank repeatedly.
    const Addr row_a = 0;
    const Addr row_b = 6 * 16 * 8;  // same channel+bank, next row group
    Cycle t = 0;
    for (int i = 0; i < 20; ++i) {
        d_narrow.service(row_a, false, t);
        d_narrow.service(row_b, false, t);
        d_wide.service(row_a, false, t);
        d_wide.service(row_b, false, t);
        t += 200;
    }
    EXPECT_GT(d_wide.stats().get("row_hits"),
              d_narrow.stats().get("row_hits"));
}

TEST(L2, HitAfterFill)
{
    L2Cache l2(L2Config{});
    EXPECT_FALSE(l2.access(100, AccessType::Read, 0).hit);
    EXPECT_TRUE(l2.access(100, AccessType::Read, 1000).hit);
}

TEST(L2, ReplacementAgeIsTheServiceStart)
{
    // One bank with one 2-way set. Line 1 arrives at cycle 50 but waits
    // behind line 0's access at 100, so it is served at 102 and is the
    // younger line. Stamped with its arrival instead, it would be the
    // LRU victim of line 2's fill.
    L2Config config;
    config.numBanks = 1;
    config.numWays = 2;
    config.totalSizeBytes = 2 * kLineSize;
    L2Cache l2(config);
    l2.access(0, AccessType::Read, 100);
    EXPECT_EQ(l2.access(1, AccessType::Read, 50).doneAt,
              100 + config.cyclePerAccess + config.accessLatency);
    l2.access(2, AccessType::Read, 200);
    EXPECT_TRUE(l2.access(1, AccessType::Read, 300).hit);
    EXPECT_FALSE(l2.access(0, AccessType::Read, 400).hit);
}

TEST(L2, BankConflictSerialises)
{
    L2Config config;
    L2Cache l2(config);
    // Same bank (same line % numBanks), back-to-back.
    L2Result a = l2.access(0, AccessType::Read, 0);
    L2Result b = l2.access(config.numBanks * 7, AccessType::Read, 0);
    EXPECT_GE(b.doneAt, a.doneAt + config.cyclePerAccess)
        << "second access must wait for the bank";
}

TEST(L2, DistinctBanksProceedInParallel)
{
    L2Config config;
    L2Cache l2(config);
    L2Result a = l2.access(0, AccessType::Read, 0);
    L2Result b = l2.access(1, AccessType::Read, 0);
    EXPECT_EQ(a.doneAt, b.doneAt);
}

TEST(L2, DirtyEvictionReconstructsGlobalAddress)
{
    // Fill one set of one bank until a dirty line is pushed out, and
    // check the write-back address is a line of the same bank.
    L2Config config;
    config.totalSizeBytes = config.numBanks * 2 * kLineSize;  // 2 lines/bank
    config.numWays = 2;
    L2Cache l2(config);
    const std::uint32_t bank = l2.bankOf(0);
    l2.access(0, AccessType::Write, 0);
    std::optional<Addr> wb;
    for (Addr i = 1; i < 4 && !wb; ++i) {
        L2Result r = l2.access(i * config.numBanks, AccessType::Read,
                               100 * i);
        wb = r.writeback;
    }
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(l2.bankOf(*wb), bank);
    EXPECT_EQ(*wb, 0u);
}

TEST(Noc, RoundTripLatencyIsSymmetric)
{
    Interconnect noc(NocConfig{});
    Cycle out = noc.smToL2(0, 0, 0);
    Cycle back = noc.l2ToSm(0, 0, out);
    // Request and response virtual networks have the same pipeline.
    EXPECT_EQ(out - 0, back - out);
}

TEST(Noc, InjectionPortSerialisesPackets)
{
    NocConfig config;
    Interconnect noc(config);
    Cycle a = noc.smToL2(0, 0, 0);
    Cycle b = noc.smToL2(0, 1, 0);  // same SM port, different bank
    EXPECT_EQ(b - a, static_cast<Cycle>(config.packetCycles));
}

TEST(Noc, DistinctPortsDoNotInterfere)
{
    Interconnect noc(NocConfig{});
    Cycle a = noc.smToL2(0, 0, 0);
    Cycle b = noc.smToL2(1, 1, 0);
    EXPECT_EQ(a, b);
}

TEST(Hierarchy, L2HitFasterThanDramMiss)
{
    MemoryHierarchy hier(NocConfig{}, L2Config{}, DramConfig{});
    MemRequest req;
    req.addr = 100 * kLineSize;
    req.smId = 0;
    const Cycle miss = hier.access(req, 0);
    EXPECT_DOUBLE_EQ(hier.stats().get("dram_requests"), 1.0);
    const Cycle hit = hier.access(req, miss + 10);
    EXPECT_DOUBLE_EQ(hier.stats().get("dram_requests"), 1.0);
    EXPECT_LT(hit - (miss + 10), miss);
}

TEST(Hierarchy, CountsOutgoingRequests)
{
    MemoryHierarchy hier(NocConfig{}, L2Config{}, DramConfig{});
    MemRequest req;
    req.addr = 0;
    hier.access(req, 0);
    MemRequest wb;
    wb.addr = kLineSize;
    wb.type = AccessType::Write;
    hier.writeback(wb, 0);
    EXPECT_EQ(hier.offchipRequests(), 2u);
    EXPECT_DOUBLE_EQ(hier.stats().get("writebacks"), 1.0);
}

TEST(Hierarchy, RoundTripDominatedByComponents)
{
    // The round trip must at least cover two NoC traversals + L2 access.
    NocConfig noc;
    L2Config l2;
    MemoryHierarchy hier(noc, l2, DramConfig{});
    MemRequest req;
    req.addr = 0;
    const Cycle done = hier.access(req, 0);
    const Cycle min_rt = 2 * (noc.hopLatency + 2 * noc.packetCycles)
                         + l2.accessLatency;
    EXPECT_GE(done, min_rt);
}

} // namespace
} // namespace fuse
