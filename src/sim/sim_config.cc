#include "sim/sim_config.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "cache/presence.hh"
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
    c.gpu.warpsPerSm = 16;
    c.gpu.instructionBudgetPerSm = 20000;
    return c;
}

std::string
ConfigField::range() const
{
    SimConfig probe;
    const bool real = std::holds_alternative<double *>(of(probe));
    char buf[64];
    std::snprintf(buf, sizeof(buf), real ? "(%.10g, %.10g)" : "[%.10g, %.10g]",
                  min, max);
    return buf;
}

// The path is written once: it is the key and the accessor.
#define FUSE_FIELD(path, lo, hi)                                          \
    {#path, [](SimConfig &c) -> ConfigField::Ref { return &c.path; }, lo, \
     hi}

const std::vector<ConfigField> &
configFields()
{
    // Each range keeps the code reading the field well defined; comments
    // name that code. kAny adds no bound to the type's own, which
    // applyOverride enforces (latencies add into the u64 clock). Counts
    // of built units (SMs, warps, ports, banks, sampler sets) stop at
    // kUnits and table lengths at kEntries: far above every preset, yet
    // no one value asks for gigabytes. Unchecked, runs would die naming
    // no key: comparators=0 raises SIGFPE, warpsPerSm=4e9 bad_alloc,
    // mshrEntries=100000 and zero sampler, history or CBF sizes a
    // constructor fatal; sttDensity=1e6 and a zero tag queue or swap
    // buffer hang.
    constexpr double kAny = std::numeric_limits<double>::infinity();
    constexpr double kUnits = 1 << 10;
    constexpr double kEntries = 1 << 16;
    static const std::vector<ConfigField> fields = {
        FUSE_FIELD(gpu.numSms, 1, kUnits),
        FUSE_FIELD(gpu.warpsPerSm, 1, kUnits),
        FUSE_FIELD(gpu.instructionBudgetPerSm, 0, kAny),
        FUSE_FIELD(gpu.maxCycles, 1, kAny),
        FUSE_FIELD(gpu.traceSeed, 0, kAny),
        // Interconnect takes the port count as a modulus. Gpu gives the
        // NoC one SM port per SM, so gpu.noc.numSmPorts has no row.
        FUSE_FIELD(gpu.noc.numL2Ports, 1, kUnits),
        FUSE_FIELD(gpu.noc.hopLatency, 0, kAny),
        FUSE_FIELD(gpu.noc.packetCycles, 0, kAny),
        // L2Cache divides by numBanks; 256 MiB is 2M lines.
        FUSE_FIELD(gpu.l2.numBanks, 1, kUnits),
        FUSE_FIELD(gpu.l2.totalSizeBytes, kLineSize, 256 << 20),
        FUSE_FIELD(gpu.l2.numWays, 1, kAny),
        FUSE_FIELD(gpu.l2.accessLatency, 0, kAny),
        FUSE_FIELD(gpu.l2.cyclePerAccess, 0, kAny),
        // Dram divides by both counts and by rowBytes / kLineSize.
        FUSE_FIELD(gpu.dram.numChannels, 1, kUnits),
        FUSE_FIELD(gpu.dram.banksPerChannel, 1, kUnits),
        FUSE_FIELD(gpu.dram.rowBytes, kLineSize, kAny),
        FUSE_FIELD(gpu.dram.tCL, 0, kAny),
        FUSE_FIELD(gpu.dram.tRCD, 0, kAny),
        FUSE_FIELD(gpu.dram.tRP, 0, kAny),
        FUSE_FIELD(gpu.dram.tRAS, 0, kAny),
        FUSE_FIELD(gpu.dram.burstCycles, 0, kAny),
        FUSE_FIELD(gpu.dram.controllerLatency, 0, kAny),
        FUSE_FIELD(gpu.dram.reorderWindowRows, 0, kAny),
        // The L1-SRAM and FA-SRAM banks count areaBudgetBytes / kLineSize
        // lines in a PresenceSummary's u16 counters, and the STT bytes
        // areaBudgetBytes * sttDensity (< 2^29) fit roundToLines' u32.
        FUSE_FIELD(l1d.areaBudgetBytes, kLineSize,
                   PresenceSummary::kCounterMax * kLineSize),
        FUSE_FIELD(l1d.sramAreaFraction, 0, 1),
        FUSE_FIELD(l1d.sttDensity, 0, 64),
        FUSE_FIELD(l1d.sramWays, 1, kAny),
        FUSE_FIELD(l1d.sttWays, 1, kAny),
        FUSE_FIELD(l1d.baselineWays, 1, kAny),
        FUSE_FIELD(l1d.nvmWays, 1, kAny),
        // The Mshr counts its entries in a PresenceSummary's u16
        // counters. HybridL1D holds a non-blocking SRAM fill while the
        // tag queue or swap buffer is full: with no entry, forever.
        FUSE_FIELD(l1d.mshrEntries, 1, PresenceSummary::kCounterMax),
        FUSE_FIELD(l1d.tagQueueEntries, 1, kEntries),
        FUSE_FIELD(l1d.swapBufferEntries, 1, kEntries),
        // ReadLevelPredictor: a u8 LRU age orders 256 sampler ways, the
        // history counter is a u8, tagBits and 2 + signatureBits shift a
        // u32 and a u64, and warpsPerSm / sampledWarps divides (Gpu sets
        // the predictor's warpsPerSm, so it has no row).
        FUSE_FIELD(l1d.predictor.samplerSets, 1, kUnits),
        FUSE_FIELD(l1d.predictor.samplerWays, 1, 256),
        FUSE_FIELD(l1d.predictor.historyEntries, 1, kEntries),
        FUSE_FIELD(l1d.predictor.signatureBits, 0, 61),
        FUSE_FIELD(l1d.predictor.tagBits, 0, 31),
        FUSE_FIELD(l1d.predictor.counterBits, 1, 8),
        FUSE_FIELD(l1d.predictor.unusedThreshold, 0, kAny),
        FUSE_FIELD(l1d.predictor.counterInit, 0, kAny),
        FUSE_FIELD(l1d.predictor.sampledWarps, 1, kUnits),
        // AssocApprox: each CBF operation loops over the hashes, a CBF
        // counter is a u8, and the search divides by the comparators.
        FUSE_FIELD(l1d.approx.numCbfs, 1, kEntries),
        FUSE_FIELD(l1d.approx.numHashes, 1, 64),
        FUSE_FIELD(l1d.approx.cbfSlots, 1, kEntries),
        FUSE_FIELD(l1d.approx.counterBits, 1, 8),
        FUSE_FIELD(l1d.approx.comparators, 1, kEntries),
        // EnergyModel divides the cycle count by the clock.
        FUSE_FIELD(energy.coreClockHz, 0, kAny),
        FUSE_FIELD(energy.l2AccessEnergy, 0, kAny),
        FUSE_FIELD(energy.dramAccessEnergy, 0, kAny),
        FUSE_FIELD(energy.nocPacketEnergy, 0, kAny),
        FUSE_FIELD(energy.computeEnergy, 0, kAny),
        FUSE_FIELD(energy.l2LeakagePower, 0, kAny),
        FUSE_FIELD(energy.smLeakagePower, 0, kAny),
    };
    return fields;
}

#undef FUSE_FIELD

void
SimConfig::validate() const
{
    for (const ConfigField &f : configFields()) {
        // Read, never written.
        const ConfigField::Ref ref = f.of(const_cast<SimConfig &>(*this));
        const double v = std::visit(
            [](auto *field) { return static_cast<double>(*field); }, ref);
        if (std::holds_alternative<double *>(ref)
                ? !(std::isfinite(v) && v > f.min && v < f.max)
                : v < f.min || v > f.max)
            fuse_fatal("invalid config: %s = %g lies outside %s", f.key, v,
                       f.range().c_str());
    }
    // The shift is defined: counterBits lies in [1, 8].
    const PredictorConfig &pred = l1d.predictor;
    const std::uint32_t counter_max = (1u << pred.counterBits) - 1;
    for (const auto &[key, value] :
         {std::pair{"l1d.predictor.unusedThreshold", pred.unusedThreshold},
          std::pair{"l1d.predictor.counterInit", pred.counterInit}}) {
        if (value > counter_max)
            fuse_fatal("invalid config: %s = %u exceeds %u, the most an "
                       "l1d.predictor.counterBits = %u counter holds",
                       key, value, counter_max, pred.counterBits);
    }
    // The predictor's sampling stride, warpsPerSm / sampledWarps, must
    // not be zero.
    if (pred.sampledWarps > gpu.warpsPerSm)
        fuse_fatal("invalid config: l1d.predictor.sampledWarps = %u "
                   "exceeds gpu.warpsPerSm = %u", pred.sampledWarps,
                   gpu.warpsPerSm);
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
        {"gpu.l2.numWays", gpu.l2.numWays,
         gpu.l2.totalSizeBytes / gpu.l2.numBanks},
    };
    for (const auto &b : banks) {
        const std::uint32_t lines = b.bankBytes / kLineSize;
        if (b.ways > lines)
            fuse_fatal("invalid config: %s = %u exceeds its bank's %u "
                       "lines", b.key, b.ways, lines);
    }
}

} // namespace fuse
