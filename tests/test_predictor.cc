/**
 * @file
 * Unit tests for the read-level predictor (§IV-B): sampler behaviour,
 * counter training, and the WM / WORM / WORO / neutral classification.
 */

#include <gtest/gtest.h>

#include "fuse/predictor.hh"

namespace fuse
{
namespace
{

MemRequest
makeReq(Addr line, Addr pc, WarpId warp, AccessType type)
{
    MemRequest r;
    r.addr = line << kLineShift;
    r.pc = pc;
    r.warpId = warp;
    r.type = type;
    return r;
}

PredictorConfig
defaultConfig()
{
    return PredictorConfig{};
}

TEST(Predictor, InitialClassificationIsNeutral)
{
    ReadLevelPredictor pred(defaultConfig());
    // Counter initialises to 8 with status 'R': inside the neutral zone.
    EXPECT_EQ(pred.classify(0x1000), ReadLevel::ReadIntensive);
}

TEST(Predictor, StreamingPcTrainsToWoro)
{
    ReadLevelPredictor pred(defaultConfig());
    const Addr pc = 0x1000;
    // A sampled warp touches a long run of distinct lines exactly once:
    // every sampler entry is evicted unused => counter rises => WORO.
    for (Addr line = 0; line < 2000; ++line)
        pred.observe(makeReq(line, pc, /*warp=*/0, AccessType::Read));
    EXPECT_EQ(pred.classify(pc), ReadLevel::WORO);
}

TEST(Predictor, ReusedReadPcTrainsToWorm)
{
    ReadLevelPredictor pred(defaultConfig());
    const Addr pc = 0x2000;
    // A small set of lines read over and over: sampler hits decrement the
    // counter to zero with status 'R' => WORM.
    for (int round = 0; round < 200; ++round) {
        for (Addr line = 0; line < 4; ++line)
            pred.observe(makeReq(line, pc, 0, AccessType::Read));
    }
    EXPECT_EQ(pred.classify(pc), ReadLevel::WORM);
}

TEST(Predictor, RewrittenPcTrainsToWm)
{
    ReadLevelPredictor pred(defaultConfig());
    const Addr pc = 0x3000;
    // The same lines written repeatedly: write re-references set the
    // status bit to 'W' while hits drive the counter to zero => WM.
    for (int round = 0; round < 200; ++round) {
        for (Addr line = 0; line < 4; ++line)
            pred.observe(makeReq(line, pc, 0, AccessType::Write));
    }
    EXPECT_EQ(pred.classify(pc), ReadLevel::WM);
}

TEST(Predictor, OnlySampledWarpsUpdateState)
{
    ReadLevelPredictor pred(defaultConfig());
    const Addr pc = 0x4000;
    // Warp 5 is not one of the representative warps (0, 12, 24, 36).
    for (Addr line = 0; line < 2000; ++line)
        pred.observe(makeReq(line, pc, /*warp=*/5, AccessType::Read));
    EXPECT_EQ(pred.classify(pc), ReadLevel::ReadIntensive)
        << "unsampled warp should not train the predictor";
}

TEST(Predictor, SamplesTheConfiguredWarpCountAtAnyWarpsPerSm)
{
    // One request from every warp of the SM: exactly sampledWarps of
    // them are sampled, whatever the SM's warp count.
    const struct
    {
        std::uint32_t warpsPerSm;
        std::uint32_t sampledWarps;
    } cases[] = {{16, 4}, {48, 4}, {64, 4}, {48, 5}};
    for (const auto &c : cases) {
        PredictorConfig config;
        config.warpsPerSm = c.warpsPerSm;
        config.sampledWarps = c.sampledWarps;
        ReadLevelPredictor pred(config);
        for (WarpId w = 0; w < c.warpsPerSm; ++w)
            pred.observe(makeReq(w, 0x7000, w, AccessType::Read));
        EXPECT_DOUBLE_EQ(pred.stats().get("sampled_requests"),
                         c.sampledWarps)
            << c.warpsPerSm << " warps, " << c.sampledWarps << " sampled";
    }
}

TEST(Predictor, DistinctPcsTrainIndependently)
{
    ReadLevelPredictor pred(defaultConfig());
    const Addr stream_pc = 0x5000;
    const Addr reuse_pc = 0x5100;
    ASSERT_NE(pred.signatureOf(stream_pc), pred.signatureOf(reuse_pc));
    for (int round = 0; round < 400; ++round) {
        // Interleave: streaming lines (never reused) and 4 hot lines.
        pred.observe(makeReq(100000 + round, stream_pc, 0,
                             AccessType::Read));
        pred.observe(makeReq(round % 4, reuse_pc, 0, AccessType::Read));
    }
    EXPECT_EQ(pred.classify(stream_pc), ReadLevel::WORO);
    EXPECT_EQ(pred.classify(reuse_pc), ReadLevel::WORM);
}

TEST(Predictor, AccuracyBookkeeping)
{
    ReadLevelPredictor pred(defaultConfig());
    pred.recordOutcome(ReadLevel::WM, /*writes=*/3, /*reads=*/1);      // true
    pred.recordOutcome(ReadLevel::WM, /*writes=*/1, /*reads=*/0);      // false
    pred.recordOutcome(ReadLevel::WORM, /*writes=*/1, /*reads=*/9);    // true
    pred.recordOutcome(ReadLevel::WORO, /*writes=*/0, /*reads=*/1);    // true
    pred.recordOutcome(ReadLevel::ReadIntensive, 1, 5);                // true
    pred.recordOutcome(ReadLevel::ReadIntensive, 3, 5);                // false
    pred.recordOutcome(ReadLevel::ReadIntensive, 1, 0);                // neutral
    EXPECT_DOUBLE_EQ(pred.stats().get("outcomes"), 7.0);
    EXPECT_DOUBLE_EQ(pred.stats().get("pred_true"), 4.0);
    EXPECT_DOUBLE_EQ(pred.stats().get("pred_false"), 2.0);
    EXPECT_DOUBLE_EQ(pred.stats().get("pred_neutral"), 1.0);
}

TEST(Predictor, CounterSaturatesWithoutOverflow)
{
    ReadLevelPredictor pred(defaultConfig());
    const Addr pc = 0x6000;
    for (Addr line = 0; line < 100000; ++line)
        pred.observe(makeReq(line, pc, 0, AccessType::Read));
    // Still WORO — the 4-bit counter must saturate at 15, not wrap.
    EXPECT_EQ(pred.classify(pc), ReadLevel::WORO);
}

} // namespace
} // namespace fuse
