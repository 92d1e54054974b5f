/**
 * @file
 * Stress and failure-injection tests: undersized structural resources
 * (1-entry MSHR/tag queue/swap buffer), pathological address patterns,
 * and long randomized traffic against protocol invariants. These guard
 * the corner cases the calibrated configurations never exercise.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "fuse/hybrid_l1d.hh"
#include "fuse/l1d_factory.hh"

namespace fuse
{
namespace
{

class StressFixture : public ::testing::Test
{
  protected:
    StressFixture() : hierarchy_(NocConfig{}, L2Config{}, DramConfig{}) {}

    MemRequest
    request(Addr line, bool is_write, Addr pc, WarpId warp)
    {
        MemRequest r;
        r.addr = line * kLineSize;
        r.pc = pc;
        r.warpId = warp;
        r.type = is_write ? AccessType::Write : AccessType::Read;
        return r;
    }

    /** Pump random traffic through an L1D; every access must terminate
     *  (no livelock) and the result protocol must be respected. */
    void
    pump(L1DCache &l1d, std::uint64_t accesses, std::uint64_t seed,
         std::uint64_t address_space, double write_prob)
    {
        Rng rng(seed);
        Cycle now = 0;
        for (std::uint64_t i = 0; i < accesses; ++i) {
            MemRequest req = request(rng.below(address_space),
                                     rng.chance(write_prob),
                                     0x1000 + (rng.next() & 0x7c),
                                     static_cast<WarpId>(rng.below(48)));
            L1DResult r = l1d.access(req, now);
            int guard = 0;
            while (r.kind == L1DResult::Kind::Stall) {
                ASSERT_LT(guard++, 100000) << "livelock at access " << i;
                now = std::max(now + 1, r.readyAt);
                l1d.tick(now);
                MemRequest retry = req;
                retry.retry = true;
                r = l1d.access(retry, now);
            }
            ASSERT_GE(r.readyAt, now) << "time ran backwards";
            now += 1 + rng.below(3);
            l1d.tick(now);
        }
    }

    MemoryHierarchy hierarchy_;
};

TEST_F(StressFixture, SramWithSingleEntryMshr)
{
    L1DParams params;
    params.mshrEntries = 1;
    auto l1d = makeL1D(L1DKind::L1Sram, params, hierarchy_);
    pump(*l1d, 3000, 1, 4096, 0.3);
    EXPECT_GT(l1d->stats().get("misses"), 0.0);
}

TEST_F(StressFixture, HybridWithMinimalPlumbing)
{
    L1DParams params;
    params.tagQueueEntries = 1;
    params.swapBufferEntries = 1;
    params.mshrEntries = 2;
    auto l1d = makeL1D(L1DKind::BaseFuse, params, hierarchy_);
    pump(*l1d, 3000, 2, 4096, 0.3);
    EXPECT_GT(l1d->stats().get("hits") + l1d->stats().get("misses"), 0.0);
}

TEST_F(StressFixture, DyFuseUnderWriteHeavyRandomTraffic)
{
    auto l1d = makeL1D(L1DKind::DyFuse, L1DParams{}, hierarchy_);
    pump(*l1d, 5000, 3, 2048, 0.7);
    // Write-heavy random traffic exercises the misprediction paths:
    // STT write hits must have migrated blocks to SRAM.
    EXPECT_GE(l1d->stats().get("migrations_stt_to_sram"), 0.0);
}

TEST_F(StressFixture, SingleSetConflictStorm)
{
    // Every line maps to SRAM set 0 and (set-assoc) STT set 0.
    auto l1d = makeL1D(L1DKind::BaseFuse, L1DParams{}, hierarchy_);
    Rng rng(4);
    Cycle now = 0;
    for (int i = 0; i < 2000; ++i) {
        Addr line = rng.below(64) * 64 * 256;  // lcm of both set counts
        MemRequest req = request(line, false, 0x1000, 0);
        L1DResult r = l1d->access(req, now);
        int guard = 0;
        while (r.kind == L1DResult::Kind::Stall && guard++ < 100000) {
            now = std::max(now + 1, r.readyAt);
            l1d->tick(now);
            MemRequest retry = req;
            retry.retry = true;
            r = l1d->access(retry, now);
        }
        now += 1;
        l1d->tick(now);
    }
    SUCCEED();
}

TEST_F(StressFixture, FaFuseApproxStateStaysConsistent)
{
    HybridL1D l1d(L1DKind::FaFuse, L1DParams{}, hierarchy_);
    pump(l1d, 6000, 5, 8192, 0.2);
    // Every line the STT tag array holds must test positive in the CBFs
    // (the approximation may over-approximate, never under-approximate).
    ASSERT_NE(l1d.approx(), nullptr);
    std::uint32_t checked = 0;
    l1d.sttBank().tags().forEachValid([&](const CacheLine &line) {
        EXPECT_TRUE(l1d.approx()->test(line.tag).positive)
            << "line " << line.tag;
        ++checked;
    });
    EXPECT_GT(checked, 0u);
}

TEST_F(StressFixture, ZeroWriteTrafficNeverWritesBack)
{
    auto l1d = makeL1D(L1DKind::L1Sram, L1DParams{}, hierarchy_);
    pump(*l1d, 3000, 6, 1u << 20, 0.0);
    EXPECT_DOUBLE_EQ(l1d->stats().get("writebacks"), 0.0);
}

TEST_F(StressFixture, TinyAddressSpaceIsAllHitsOnceWarm)
{
    auto l1d = makeL1D(L1DKind::L1Sram, L1DParams{}, hierarchy_);
    pump(*l1d, 200, 7, 16, 0.2);  // warm 16 lines
    const double misses_after_warm = l1d->stats().get("misses");
    pump(*l1d, 2000, 8, 16, 0.2);
    // Only the 16 compulsory misses (plus any in-flight artifacts from
    // the warm phase) are allowed.
    EXPECT_LE(l1d->stats().get("misses"), misses_after_warm + 1);
}

} // namespace
} // namespace fuse
