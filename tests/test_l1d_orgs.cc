/**
 * @file
 * Behavioural tests for the L1D organisations: hit/miss protocol, the
 * Hybrid blocking flaw, Base-FUSE's non-blocking plumbing, FA-FUSE's
 * full-associativity, Dy-FUSE's predictor-driven placement/bypass, and
 * By-NVM's dead-write bypassing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "fuse/hybrid_l1d.hh"
#include "fuse/l1d_factory.hh"
#include "fuse/oracle_l1d.hh"

namespace fuse
{
namespace
{

class L1DFixture : public ::testing::Test
{
  protected:
    L1DFixture() : hierarchy_(NocConfig{}, L2Config{}, DramConfig{}) {}

    MemRequest
    read(Addr line, Addr pc = 0x1000, WarpId warp = 0)
    {
        MemRequest r;
        r.addr = line * kLineSize;
        r.pc = pc;
        r.warpId = warp;
        r.type = AccessType::Read;
        return r;
    }

    MemRequest
    write(Addr line, Addr pc = 0x1004, WarpId warp = 0)
    {
        MemRequest r = read(line, pc, warp);
        r.type = AccessType::Write;
        return r;
    }

    /** Drive an access to completion, retrying stalls with ticks. */
    L1DResult
    drive(L1DCache &l1d, const MemRequest &req, Cycle &now)
    {
        L1DResult r = l1d.access(req, now);
        int guard = 0;
        while (r.kind == L1DResult::Kind::Stall && guard++ < 10000) {
            now = std::max(now + 1, r.readyAt);
            l1d.tick(now);
            MemRequest retry = req;
            retry.retry = true;
            r = l1d.access(retry, now);
        }
        EXPECT_NE(r.kind, L1DResult::Kind::Stall);
        return r;
    }

    /** The organisation @p kind with Table I parameters. */
    std::unique_ptr<L1DCache>
    make(L1DKind kind, const L1DParams &params = L1DParams{})
    {
        return makeL1D(kind, params, hierarchy_);
    }

    MemoryHierarchy hierarchy_;
};

/** Whether @p bank holds @p line (a tag-only lookup). */
bool
holds(const CacheBank &bank, Addr line)
{
    return bank.tags().lookup(line).hit();
}

TEST_F(L1DFixture, SramMissThenHit)
{
    auto l1d = make(L1DKind::L1Sram);
    Cycle now = 0;
    L1DResult miss = drive(*l1d, read(5), now);
    EXPECT_EQ(miss.kind, L1DResult::Kind::Miss);
    EXPECT_GT(miss.readyAt, now + 10);  // off-chip round trip
    now = miss.readyAt + 1;
    L1DResult hit = drive(*l1d, read(5), now);
    EXPECT_EQ(hit.kind, L1DResult::Kind::Hit);
    EXPECT_EQ(hit.readyAt, now + 1);
}

TEST_F(L1DFixture, SramInFlightLineStaysMissUntilFill)
{
    auto l1d = make(L1DKind::L1Sram);
    Cycle now = 0;
    L1DResult primary = l1d->access(read(5), now);
    ASSERT_EQ(primary.kind, L1DResult::Kind::Miss);
    // A second access before the fill merges and must not "hit".
    L1DResult secondary = l1d->access(read(5, 0x1000, 1), now + 2);
    EXPECT_EQ(secondary.kind, L1DResult::Kind::Miss);
    EXPECT_EQ(secondary.readyAt, primary.readyAt);
    EXPECT_DOUBLE_EQ(l1d->stats().get("mshr_secondary"), 1.0);
}

TEST_F(L1DFixture, SramMshrFullStalls)
{
    L1DParams params;
    params.mshrEntries = 2;
    auto l1d = make(L1DKind::L1Sram, params);
    l1d->access(read(1), 0);
    l1d->access(read(2), 0);
    L1DResult r = l1d->access(read(3), 0);
    EXPECT_EQ(r.kind, L1DResult::Kind::Stall);
    EXPECT_GT(r.readyAt, 0u);  // retry hint points at the earliest fill
}

TEST_F(L1DFixture, FaSramIsFullyAssociative)
{
    auto l1d = make(L1DKind::FaSram);
    EXPECT_EQ(l1d->kind(), L1DKind::FaSram);
    ASSERT_EQ(l1d->banks().size(), 1u);
    EXPECT_EQ(l1d->banks()[0]->tags().numSets(), 1u);
    EXPECT_EQ(l1d->banks()[0]->tags().numWays(), 256u);  // 32KB / 128B
    // Conflict-storm addresses (stride = #sets of the 64-set baseline)
    // all fit simultaneously.
    Cycle now = 0;
    for (Addr i = 0; i < 200; ++i)
        drive(*l1d, read(i * 64), now);
    now = 1000000;
    std::uint32_t hits = 0;
    for (Addr i = 0; i < 200; ++i) {
        if (drive(*l1d, read(i * 64), now).kind == L1DResult::Kind::Hit)
            ++hits;
    }
    EXPECT_EQ(hits, 200u);
}

TEST_F(L1DFixture, OracleOnlyCompulsoryMisses)
{
    OracleL1D l1d(hierarchy_);
    Cycle now = 0;
    EXPECT_EQ(l1d.access(read(1), now).kind, L1DResult::Kind::Miss);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(l1d.access(read(1), ++now).kind, L1DResult::Kind::Hit);
    EXPECT_EQ(l1d.access(read(2), now).kind, L1DResult::Kind::Miss);
}

TEST_F(L1DFixture, ByNvmBypassesTrainedDeadWrites)
{
    auto l1d = make(L1DKind::ByNvm);
    Cycle now = 0;
    // Train: a sampled warp (0) streams distinct lines, never reusing.
    const Addr pc = 0x2000;
    for (Addr line = 0; line < 3000; ++line) {
        MemRequest r = read(100000 + line, pc, /*warp=*/0);
        L1DResult res = l1d->access(r, now);
        now = std::max(now + 1, res.readyAt);
        l1d->tick(now);
    }
    // Table II's bypass ratio: bypassed over all accesses.
    const StatGroup &stats = l1d->stats();
    const double bypasses = stats.get("bypasses");
    EXPECT_GT(bypasses, 0.0);
    EXPECT_GT(bypasses / (stats.get("hits") + stats.get("misses")
                          + bypasses),
              0.3);
}

TEST_F(L1DFixture, PureNvmNeverBypasses)
{
    auto l1d = make(L1DKind::PureNvm);
    EXPECT_EQ(l1d->kind(), L1DKind::PureNvm);
    Cycle now = 0;
    for (Addr line = 0; line < 2000; ++line) {
        L1DResult r = drive(*l1d, read(line, 0x2000, 0), now);
        now = std::max(now + 1, r.readyAt);
    }
    EXPECT_DOUBLE_EQ(l1d->stats().get("bypasses"), 0.0);
}

TEST_F(L1DFixture, ByNvmWritePenaltyBlocksL1D)
{
    auto l1d = make(L1DKind::PureNvm);
    Cycle now = 0;
    drive(*l1d, read(1), now);
    now = 100000;
    // A write hit occupies the MTJ array for 5 cycles...
    L1DResult w = l1d->access(write(1), now);
    EXPECT_EQ(w.kind, L1DResult::Kind::Hit);
    // ...so an immediately following access stalls, and the wait counts
    // as an STT stall.
    L1DResult r = l1d->access(read(1), now + 1);
    EXPECT_EQ(r.kind, L1DResult::Kind::Stall);
    EXPECT_GE(r.readyAt, now + 5);
    EXPECT_DOUBLE_EQ(l1d->stats().get("stall_stt"), 4.0);
}

TEST_F(L1DFixture, HybridBlocksWholeL1DDuringMigration)
{
    HybridL1D l1d(L1DKind::Hybrid, L1DParams{}, hierarchy_);
    Cycle now = 0;
    // Fill the SRAM bank's set 0 (64 sets, 2 ways) and force an eviction:
    // the migration write occupies the STT demand port.
    drive(l1d, read(0), now);
    now += 2000;
    drive(l1d, read(64), now);
    now += 2000;
    drive(l1d, read(128), now);  // evicts line 0 -> STT write
    // The next access, to an unrelated SRAM-resident line, stalls while
    // the STT bank is busy.
    L1DResult r = l1d.access(read(64), now + 1);
    EXPECT_EQ(r.kind, L1DResult::Kind::Stall);
    EXPECT_GT(l1d.stats().get("stall_stt"), 0.0);
}

TEST_F(L1DFixture, BaseFuseAbsorbsMigrationInSwapBuffer)
{
    HybridL1D l1d(L1DKind::BaseFuse, L1DParams{}, hierarchy_);
    Cycle now = 0;
    drive(l1d, read(0), now);
    now += 2000;
    drive(l1d, read(64), now);
    now += 2000;
    drive(l1d, read(128), now);  // eviction parks in the swap buffer
    EXPECT_GT(l1d.stats().get("migrations_sram_to_stt"), 0.0);
    // SRAM hits proceed immediately despite the pending migration.
    L1DResult r = l1d.access(read(64), now + 1);
    EXPECT_EQ(r.kind, L1DResult::Kind::Hit);
    // The migrated line is readable from the swap buffer (snoop path).
    L1DResult parked = l1d.access(read(0), now + 2);
    EXPECT_EQ(parked.kind, L1DResult::Kind::Hit);
}

TEST_F(L1DFixture, BaseFuseDrainsMigrationToStt)
{
    HybridL1D l1d(L1DKind::BaseFuse, L1DParams{}, hierarchy_);
    Cycle now = 0;
    drive(l1d, read(0), now);
    now += 2000;
    drive(l1d, read(64), now);
    now += 2000;
    drive(l1d, read(128), now);
    // Let the tag queue drain.
    for (int i = 0; i < 50; ++i)
        l1d.tick(now + i);
    EXPECT_TRUE(holds(l1d.sttBank(), 0))
        << "victim must land in the STT bank";
    EXPECT_TRUE(l1d.swapBuffer().empty());
}

TEST_F(L1DFixture, BaseFuseDrainWritesBackThroughOwningSm)
{
    // An L1D belongs to one SM: the dirty STT victim of a tag-queue drain
    // must leave through that SM's NoC port and delay no other SM.
    const SmId owner = 1;
    HybridL1D l1d(L1DKind::BaseFuse, L1DParams{}, hierarchy_, owner);
    const auto own = [&](MemRequest r) {
        r.smId = owner;
        return r;
    };
    // Lines 0, 256, 512, 768 and 1024 share SRAM set 0 (64 sets) and STT
    // set 0 (256 sets). Each fill after the second evicts the SRAM LRU
    // line into the STT set; the third migration (line 512) finds the
    // set holding 0 and 256 and evicts dirty line 0 to L2.
    Cycle now = 0;
    drive(l1d, own(write(0)), now);
    for (Addr line : {256, 512, 768}) {
        now += 2000;
        drive(l1d, own(read(line)), now);
        for (int i = 0; i < 50; ++i)
            l1d.tick(now + i);
    }
    ASSERT_DOUBLE_EQ(l1d.stats().get("writebacks"), 0.0);
    now += 2000;
    drive(l1d, own(read(1024)), now);
    Cycle drained = now;
    for (; drained < now + 50; ++drained) {
        l1d.tick(drained);
        if (l1d.stats().get("writebacks") > 0.0)
            break;
    }
    ASSERT_DOUBLE_EQ(l1d.stats().get("writebacks"), 1.0);

    // SM 0 misses on line 1 (L2 bank 1, DRAM channel 1, both untouched)
    // in the drain's cycle: its round trip is the unloaded one.
    MemRequest probe = read(1);
    probe.smId = 0;
    MemoryHierarchy unloaded(NocConfig{}, L2Config{}, DramConfig{});
    EXPECT_EQ(hierarchy_.access(probe, drained),
              unloaded.access(probe, drained));
}

TEST_F(L1DFixture, FaFuseHoldsConflictStorm)
{
    HybridL1D l1d(L1DKind::FaFuse, L1DParams{}, hierarchy_);
    Cycle now = 0;
    // 300 stride-64 lines: a set-associative bank collapses them onto a
    // few sets; the approximated fully-associative STT bank holds all.
    for (Addr i = 0; i < 300; ++i) {
        drive(l1d, read(i * 64), now);
        now += 2000;
    }
    now += 100000;
    std::uint32_t hits = 0;
    for (Addr i = 0; i < 300; ++i) {
        if (drive(l1d, read(i * 64), now).kind == L1DResult::Kind::Hit)
            ++hits;
        now += 10;
    }
    EXPECT_GT(hits, 250u);
}

TEST_F(L1DFixture, DyFuseBypassesWoroAndProtectsWm)
{
    HybridL1D l1d(L1DKind::DyFuse, L1DParams{}, hierarchy_);
    Cycle now = 0;
    // Train a streaming PC (dead) and an accumulator PC (WM) via warp 0.
    const Addr dead_pc = 0x3000;
    const Addr wm_pc = 0x3100;
    for (int i = 0; i < 3000; ++i) {
        L1DResult r =
            l1d.access(read(500000 + i, dead_pc, 0), now);
        now = std::max(now + 1, r.kind == L1DResult::Kind::Stall
                                    ? r.readyAt : now + 1);
        l1d.tick(now);
        MemRequest w = write(900000 + (i % 4), wm_pc, 0);
        L1DResult wr = l1d.access(w, now);
        now = std::max(now + 1, wr.kind == L1DResult::Kind::Stall
                                    ? wr.readyAt : now + 1);
        l1d.tick(now);
    }
    EXPECT_EQ(l1d.predictor().classify(dead_pc), ReadLevel::WORO);
    EXPECT_EQ(l1d.predictor().classify(wm_pc), ReadLevel::WM);
    EXPECT_GT(l1d.stats().get("bypasses"), 0.0);
    // The hot WM lines live in SRAM, not STT.
    EXPECT_TRUE(holds(l1d.sramBank(), 900000));
    EXPECT_FALSE(holds(l1d.sttBank(), 900000));
}

TEST_F(L1DFixture, DyFuseWriteHitOnSttMigratesToSram)
{
    HybridL1D l1d(L1DKind::DyFuse, L1DParams{}, hierarchy_);
    Cycle now = 0;
    // A neutral-classified read miss fills STT (default placement).
    drive(l1d, read(77), now);
    now += 100000;
    ASSERT_TRUE(holds(l1d.sttBank(), 77));
    // A write hit on STT data is a misprediction: migrate to SRAM.
    L1DResult w = drive(l1d, write(77), now);
    EXPECT_EQ(w.kind, L1DResult::Kind::Hit);
    EXPECT_FALSE(holds(l1d.sttBank(), 77));
    EXPECT_TRUE(holds(l1d.sramBank(), 77));
    EXPECT_DOUBLE_EQ(l1d.stats().get("migrations_stt_to_sram"), 1.0);
}

TEST_F(L1DFixture, DyFuseBlockedMigrationIsNoSttStall)
{
    HybridL1D l1d(L1DKind::DyFuse, L1DParams{}, hierarchy_);
    Cycle now = 0;
    // Neutral-classified read misses fill STT; let the tag queue drain.
    for (Addr line : {0, 64, 128}) {
        drive(l1d, read(line), now);
        now += 2000;
    }
    for (int i = 0; i < 50; ++i)
        l1d.tick(now + i);
    now += 100000;
    // Write hits on lines 0 and 64 migrate them into SRAM set 0 (64
    // sets, 2 ways).
    for (Addr line : {0, 64}) {
        ASSERT_EQ(drive(l1d, write(line), now).kind, L1DResult::Kind::Hit);
        now += 100;
    }
    ASSERT_TRUE(holds(l1d.sramBank(), 0));
    ASSERT_TRUE(holds(l1d.sramBank(), 64));
    // Fill the swap buffer, so the next SRAM victim cannot park there.
    for (Addr line : {5000, 5001, 5002}) {
        CacheLine parked;
        parked.tag = line;
        parked.valid = true;
        l1d.swapBuffer().push(parked);
    }
    // Line 128's migration evicts dirty line 0 from SRAM set 0 to L2.
    // The access still hits and never waits, so no STT stall cycle.
    const L1DResult r = l1d.access(write(128), now);
    EXPECT_EQ(r.kind, L1DResult::Kind::Hit);
    EXPECT_DOUBLE_EQ(l1d.stats().get("writebacks"), 1.0);
    EXPECT_FALSE(holds(l1d.sramBank(), 0));
    EXPECT_DOUBLE_EQ(l1d.stats().get("stall_stt"), 0.0);
}

TEST_F(L1DFixture, SingleCopyInvariantAcrossBanks)
{
    HybridL1D l1d(L1DKind::DyFuse, L1DParams{}, hierarchy_);
    Cycle now = 0;
    Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        Addr line = rng.below(600) * 16;
        MemRequest req = rng.chance(0.3) ? write(line, 0x5004, 1)
                                         : read(line, 0x5000, 1);
        L1DResult r = l1d.access(req, now);
        now = std::max(now + 1,
                       r.kind == L1DResult::Kind::Stall ? r.readyAt
                                                        : now + 1);
        l1d.tick(now);
        // Consistency (§III-A): at most one copy across SRAM/STT/swap.
        int copies = holds(l1d.sramBank(), line)
                     + holds(l1d.sttBank(), line)
                     + (l1d.swapBuffer().find(line) != nullptr);
        ASSERT_LE(copies, 1) << "line " << line << " duplicated";
    }
}

TEST_F(L1DFixture, FactoryBuildsEveryKind)
{
    // Table I geometries of every organisation's banks, SRAM first.
    struct Bank
    {
        BankTech tech;
        std::uint32_t sets;
        std::uint32_t ways;
        ReplPolicy policy;
    };
    const Bank sram64x4{BankTech::Sram, 64, 4, ReplPolicy::LRU};
    const Bank sram1x256{BankTech::Sram, 1, 256, ReplPolicy::LRU};
    const Bank stt256x4{BankTech::SttMram, 256, 4, ReplPolicy::LRU};
    const Bank sram64x2{BankTech::Sram, 64, 2, ReplPolicy::LRU};
    const Bank stt256x2{BankTech::SttMram, 256, 2, ReplPolicy::FIFO};
    const Bank stt1x512{BankTech::SttMram, 1, 512, ReplPolicy::FIFO};
    const struct
    {
        L1DKind kind;
        std::vector<Bank> banks;
    } cases[] = {
        {L1DKind::L1Sram, {sram64x4}},
        {L1DKind::FaSram, {sram1x256}},
        {L1DKind::ByNvm, {stt256x4}},
        {L1DKind::PureNvm, {stt256x4}},
        {L1DKind::Hybrid, {sram64x2, stt256x2}},
        {L1DKind::BaseFuse, {sram64x2, stt256x2}},
        {L1DKind::FaFuse, {sram64x2, stt1x512}},
        {L1DKind::DyFuse, {sram64x2, stt1x512}},
        {L1DKind::Oracle, {}},
    };
    for (const auto &c : cases) {
        auto l1d = make(c.kind);
        ASSERT_NE(l1d, nullptr);
        EXPECT_EQ(l1d->kind(), c.kind);
        const std::vector<const CacheBank *> banks = l1d->banks();
        ASSERT_EQ(banks.size(), c.banks.size()) << toString(c.kind);
        for (std::size_t b = 0; b < banks.size(); ++b) {
            const BankConfig &got = banks[b]->config();
            const Bank &want = c.banks[b];
            EXPECT_EQ(got.tech, want.tech) << toString(c.kind) << " " << b;
            EXPECT_EQ(banks[b]->tags().numSets(), want.sets)
                << toString(c.kind) << " " << b;
            EXPECT_EQ(banks[b]->tags().numWays(), want.ways)
                << toString(c.kind) << " " << b;
            EXPECT_EQ(got.policy, want.policy)
                << toString(c.kind) << " " << b;
        }
    }
}

TEST_F(L1DFixture, FactoryAreaBudgetSplit)
{
    L1DParams params;
    EXPECT_EQ(params.hybridSramBytes(), 16u * 1024);
    EXPECT_EQ(params.hybridSttBytes(), 64u * 1024);
    EXPECT_EQ(params.pureNvmBytes(), 128u * 1024);
    params.sramAreaFraction = 0.25;
    EXPECT_EQ(params.hybridSramBytes(), 8u * 1024);
    EXPECT_EQ(params.hybridSttBytes(), 96u * 1024);
}

} // namespace
} // namespace fuse
