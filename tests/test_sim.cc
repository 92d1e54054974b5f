/**
 * @file
 * Tests for the sim layer: Report formatting, SimConfig presets and the
 * Simulator's refusal of a cut-off run. The aggregation helpers (geomean
 * etc.) are covered in test_exp.cc, where they now live.
 */

#include <gtest/gtest.h>

#include "sim/report.hh"
#include "sim/sim_config.hh"
#include "sim/simulator.hh"

namespace fuse
{
namespace
{

TEST(Report, FormatsNumbers)
{
    EXPECT_EQ(fmt(1.2345, 2), "1.23");
    EXPECT_EQ(fmt(1.0, 0), "1");
    EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(SimConfig, FermiMatchesTableI)
{
    SimConfig c = SimConfig::fermi();
    EXPECT_EQ(c.gpu.numSms, 15u);
    EXPECT_EQ(c.gpu.warpsPerSm, 48u);
    EXPECT_EQ(c.gpu.l2.numBanks, 12u);
    EXPECT_EQ(c.gpu.l2.totalSizeBytes, 786u * 1024);
    EXPECT_EQ(c.gpu.dram.numChannels, 6u);
    EXPECT_EQ(c.gpu.dram.tCL, 12u);
    EXPECT_EQ(c.gpu.dram.tRCD, 12u);
    EXPECT_EQ(c.gpu.dram.tRAS, 28u);
    EXPECT_EQ(c.l1d.areaBudgetBytes, 32u * 1024);
    EXPECT_DOUBLE_EQ(c.l1d.sramAreaFraction, 0.5);
    EXPECT_EQ(c.l1d.tagQueueEntries, 16u);
    EXPECT_EQ(c.l1d.swapBufferEntries, 3u);
    EXPECT_EQ(c.l1d.approx.numCbfs, 128u);
    EXPECT_EQ(c.l1d.approx.numHashes, 3u);
    EXPECT_EQ(c.l1d.predictor.unusedThreshold, 14u);
    EXPECT_EQ(c.l1d.predictor.counterInit, 8u);
}

TEST(SimConfig, VoltaMatchesSectionVB)
{
    SimConfig c = SimConfig::volta();
    EXPECT_EQ(c.gpu.numSms, 84u);
    EXPECT_EQ(c.gpu.l2.totalSizeBytes, 6u * 1024 * 1024);
    EXPECT_EQ(c.l1d.areaBudgetBytes, 128u * 1024);
    EXPECT_GT(c.gpu.dram.numChannels,
              SimConfig::fermi().gpu.dram.numChannels);
}

TEST(SimConfig, TestScaleIsSmaller)
{
    SimConfig c = SimConfig::testScale();
    EXPECT_LT(c.gpu.numSms, SimConfig::fermi().gpu.numSms);
    EXPECT_LT(c.gpu.instructionBudgetPerSm,
              SimConfig::fermi().gpu.instructionBudgetPerSm);
}

TEST(SimulatorDeathTest, RunCutOffByMaxCyclesIsFatal)
{
    // Metrics of a partial kernel are not the workload's: the run fails,
    // naming the workload, the kind and the cap, instead of reporting.
    SimConfig c = SimConfig::testScale();
    c.gpu.maxCycles = 1000;
    EXPECT_EXIT(Simulator(c).run("ATAX", L1DKind::DyFuse),
                ::testing::ExitedWithCode(1),
                "ATAX on Dy-FUSE retired .* gpu.maxCycles = 1000");
}

} // namespace
} // namespace fuse
