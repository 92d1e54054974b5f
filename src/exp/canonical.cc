#include "exp/canonical.hh"

#include <cinttypes>
#include <cstdio>

#include "fuse/l1d.hh"

namespace fuse
{

namespace
{

// %.17g round-trips every finite double bit-for-bit, matching the exp
// exporters, so numerically-equal configs always canonicalise to equal
// bytes.
void
line(std::string &out, const char *key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += key;
    out += " = ";
    out += buf;
    out += '\n';
}

void
line(std::string &out, const char *key, std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += key;
    out += " = ";
    out += buf;
    out += '\n';
}

void
line(std::string &out, const char *key, std::uint32_t v)
{
    line(out, key, static_cast<std::uint64_t>(v));
}

} // namespace

std::string
canonicalConfig(const SimConfig &config)
{
    // Every behaviour-relevant SimConfig field, in fixed order. A field
    // added to any of the config structs MUST be added here, or configs
    // differing only in that field will share one simulation (the
    // Canonical tests apply every override key as a tripwire).
    std::string out;
    const GpuConfig &gpu = config.gpu;
    line(out, "gpu.numSms", gpu.numSms);
    line(out, "gpu.warpsPerSm", gpu.warpsPerSm);
    line(out, "gpu.instructionBudgetPerSm", gpu.instructionBudgetPerSm);
    line(out, "gpu.maxCycles", static_cast<std::uint64_t>(gpu.maxCycles));
    line(out, "gpu.traceSeed", gpu.traceSeed);

    const NocConfig &noc = gpu.noc;
    line(out, "noc.numSmPorts", noc.numSmPorts);
    line(out, "noc.numL2Ports", noc.numL2Ports);
    line(out, "noc.hopLatency", noc.hopLatency);
    line(out, "noc.packetCycles", noc.packetCycles);

    const L2Config &l2 = gpu.l2;
    line(out, "l2.numBanks", l2.numBanks);
    line(out, "l2.totalSizeBytes", l2.totalSizeBytes);
    line(out, "l2.numWays", l2.numWays);
    line(out, "l2.accessLatency", l2.accessLatency);
    line(out, "l2.cyclePerAccess", l2.cyclePerAccess);

    const DramConfig &dram = gpu.dram;
    line(out, "dram.numChannels", dram.numChannels);
    line(out, "dram.banksPerChannel", dram.banksPerChannel);
    line(out, "dram.rowBytes", dram.rowBytes);
    line(out, "dram.tCL", dram.tCL);
    line(out, "dram.tRCD", dram.tRCD);
    line(out, "dram.tRP", dram.tRP);
    line(out, "dram.tRAS", dram.tRAS);
    line(out, "dram.burstCycles", dram.burstCycles);
    line(out, "dram.controllerLatency", dram.controllerLatency);
    line(out, "dram.reorderWindowRows", dram.reorderWindowRows);

    const L1DParams &l1d = config.l1d;
    line(out, "l1d.areaBudgetBytes", l1d.areaBudgetBytes);
    line(out, "l1d.sramAreaFraction", l1d.sramAreaFraction);
    line(out, "l1d.sttDensity", l1d.sttDensity);
    line(out, "l1d.sramWays", l1d.sramWays);
    line(out, "l1d.sttWays", l1d.sttWays);
    line(out, "l1d.baselineWays", l1d.baselineWays);
    line(out, "l1d.nvmWays", l1d.nvmWays);
    line(out, "l1d.mshrEntries", l1d.mshrEntries);
    line(out, "l1d.tagQueueEntries", l1d.tagQueueEntries);
    line(out, "l1d.swapBufferEntries", l1d.swapBufferEntries);

    const PredictorConfig &pred = l1d.predictor;
    line(out, "predictor.samplerSets", pred.samplerSets);
    line(out, "predictor.samplerWays", pred.samplerWays);
    line(out, "predictor.historyEntries", pred.historyEntries);
    line(out, "predictor.signatureBits", pred.signatureBits);
    line(out, "predictor.tagBits", pred.tagBits);
    line(out, "predictor.counterBits", pred.counterBits);
    line(out, "predictor.unusedThreshold", pred.unusedThreshold);
    line(out, "predictor.counterInit", pred.counterInit);
    line(out, "predictor.sampledWarps", pred.sampledWarps);

    const AssocApproxConfig &approx = l1d.approx;
    line(out, "approx.numCbfs", approx.numCbfs);
    line(out, "approx.numHashes", approx.numHashes);
    line(out, "approx.cbfSlots", approx.cbfSlots);
    line(out, "approx.counterBits", approx.counterBits);
    line(out, "approx.comparators", approx.comparators);

    const EnergyParams &energy = config.energy;
    line(out, "energy.coreClockHz", energy.coreClockHz);
    line(out, "energy.l2AccessEnergy", energy.l2AccessEnergy);
    line(out, "energy.dramAccessEnergy", energy.dramAccessEnergy);
    line(out, "energy.nocPacketEnergy", energy.nocPacketEnergy);
    line(out, "energy.computeEnergy", energy.computeEnergy);
    line(out, "energy.l2LeakagePower", energy.l2LeakagePower);
    line(out, "energy.smLeakagePower", energy.smLeakagePower);
    return out;
}

std::string
canonicalSpecPoint(const ExperimentSpec &spec, std::size_t b, std::size_t v,
                   std::size_t k)
{
    // The header pins the workload half of the run; configFor(v) bakes
    // the spec's seed and variant overrides (and any FUSE_FAST budget
    // scaling) into the config half, so the point text is independent of
    // how the spec was authored.
    std::string out = "fuse canonical point v1\n";
    out += "benchmark = ";
    out += spec.benchmarks.at(b);
    out += '\n';
    out += "kind = ";
    out += toString(spec.kinds.at(k));
    out += '\n';
    out += canonicalConfig(spec.configFor(v));
    return out;
}

} // namespace fuse
