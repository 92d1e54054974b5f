#include "sim/sim_config.hh"

#include <cstdlib>

#include "common/log.hh"

namespace fuse
{

namespace
{
/** Honour FUSE_FAST=1 for quick smoke runs of the bench suite. */
std::uint64_t
defaultBudget(std::uint64_t full)
{
    const char *fast = std::getenv("FUSE_FAST");
    if (fast && fast[0] == '1')
        return full / 8;
    return full;
}
} // namespace

SimConfig
SimConfig::fermi()
{
    SimConfig c;
    c.gpu.numSms = 15;
    c.gpu.warpsPerSm = 48;
    c.gpu.instructionBudgetPerSm = defaultBudget(30000);
    c.gpu.noc.numSmPorts = 15;
    c.gpu.noc.numL2Ports = 12;
    c.gpu.l2.numBanks = 12;
    c.gpu.l2.totalSizeBytes = 786 * 1024;
    c.gpu.l2.numWays = 8;
    c.gpu.dram.numChannels = 6;

    c.l1d.areaBudgetBytes = 32 * 1024;
    c.l1d.sramAreaFraction = 0.5;
    return c;
}

SimConfig
SimConfig::volta()
{
    SimConfig c = fermi();
    c.gpu.numSms = 84;
    c.gpu.noc.numSmPorts = 84;
    c.gpu.noc.numL2Ports = 32;
    c.gpu.l2.numBanks = 32;
    c.gpu.l2.totalSizeBytes = 6 * 1024 * 1024;
    // 900 GB/s HBM2: more channels, wider effective burst throughput.
    c.gpu.dram.numChannels = 24;
    c.gpu.dram.burstCycles = 2;
    // Volta's L1 is configurable up to 128KB; the study uses 128KB.
    c.l1d.areaBudgetBytes = 128 * 1024;
    // Keep total simulated work comparable to the Fermi study.
    c.gpu.instructionBudgetPerSm = defaultBudget(30000) / 4;
    return c;
}

SimConfig
SimConfig::testScale()
{
    SimConfig c = fermi();
    c.gpu.numSms = 4;
    c.gpu.noc.numSmPorts = 4;
    c.gpu.warpsPerSm = 16;
    c.gpu.instructionBudgetPerSm = 20000;
    return c;
}

void
SimConfig::validate() const
{
    const struct
    {
        const char *key;
        std::uint64_t value;
    } counts[] = {
        {"gpu.numSms", gpu.numSms},
        {"gpu.warpsPerSm", gpu.warpsPerSm},
        {"gpu.maxCycles", gpu.maxCycles},
        {"l1d.mshrEntries", l1d.mshrEntries},
        {"l1d.sramWays", l1d.sramWays},
        {"l1d.sttWays", l1d.sttWays},
        {"l1d.baselineWays", l1d.baselineWays},
        {"l1d.nvmWays", l1d.nvmWays},
    };
    for (const auto &c : counts) {
        if (c.value == 0)
            fuse_fatal("invalid config: %s must be positive", c.key);
    }
    // Written so NaN fails too.
    if (!(l1d.sramAreaFraction > 0.0 && l1d.sramAreaFraction < 1.0))
        fuse_fatal("invalid config: l1d.sramAreaFraction must lie in "
                   "(0, 1), got %g", l1d.sramAreaFraction);
    // The bank builders clamp the set count to one but keep every way,
    // so more ways than lines would silently enlarge the bank.
    const struct
    {
        const char *key;
        std::uint32_t ways;
        std::uint32_t bankBytes;
    } banks[] = {
        {"l1d.baselineWays", l1d.baselineWays, l1d.areaBudgetBytes},
        {"l1d.sramWays", l1d.sramWays, l1d.hybridSramBytes()},
        {"l1d.sttWays", l1d.sttWays, l1d.hybridSttBytes()},
        {"l1d.nvmWays", l1d.nvmWays, l1d.pureNvmBytes()},
    };
    for (const auto &b : banks) {
        const std::uint32_t lines = b.bankBytes / kLineSize;
        if (b.ways > lines)
            fuse_fatal("invalid config: %s = %u exceeds its bank's %u "
                       "lines", b.key, b.ways, lines);
    }
}

} // namespace fuse
