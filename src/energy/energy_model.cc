#include "energy/energy_model.hh"

#include "cache/cache_bank.hh"
#include "gpu/gpu.hh"

namespace fuse
{

namespace
{

/** Dynamic energy of one bank's array reads and writes. */
double
bankDynamic(const CacheBank &bank, double read_nj, double write_nj)
{
    return static_cast<double>(bank.reads()) * read_nj
           + static_cast<double>(bank.writes()) * write_nj;
}

/** mW x seconds => nJ (1 mW*s = 1e6 nJ... 1 mW = 1e-3 J/s = 1e6 nJ/s). */
double
leakageNj(double milliwatts, double seconds)
{
    return milliwatts * 1e6 * seconds;
}

/** Accumulate one L1D's dynamic/leakage energy into the breakdown. */
void
addL1dEnergy(const L1DCache &l1d, double seconds, EnergyBreakdown &out)
{
    const std::vector<const CacheBank *> banks = l1d.banks();
    if (banks.empty()) {
        // Oracle: charge the baseline SRAM leakage so comparisons stay
        // conservative.
        out.l1dLeakage +=
            leakageNj(sramBankEnergy(32 * 1024).leakageMw, seconds);
        return;
    }
    // Leakage power sums over the banks before it becomes energy.
    double leakage_mw = 0.0;
    for (const CacheBank *bank : banks) {
        const BankEnergy e = bankEnergy(*bank);
        out.l1dDynamic += bankDynamic(*bank, e.readNj, e.writeNj);
        leakage_mw += e.leakageMw;
    }
    out.l1dLeakage += leakageNj(leakage_mw, seconds);
}

} // namespace

BankEnergy
bankEnergy(const CacheBank &bank)
{
    const std::uint32_t bytes = bank.config().sizeBytes;
    return bank.config().tech == BankTech::SttMram ? sttBankEnergy(bytes)
                                                   : sramBankEnergy(bytes);
}

EnergyBreakdown
EnergyModel::evaluate(const Gpu &gpu) const
{
    EnergyBreakdown out;
    const double seconds =
        static_cast<double>(gpu.cycles()) / params_.coreClockHz;

    for (const auto &sm : gpu.sms())
        addL1dEnergy(sm->l1d(), seconds, out);

    // L2 accesses: every off-chip request and writeback touches an L2
    // bank once.
    const double l2_accesses = gpu.hierarchy().stats().get("requests");
    out.l2 = l2_accesses * params_.l2AccessEnergy
             + leakageNj(params_.l2LeakagePower, seconds);

    out.dram = gpu.hierarchy().dram().stats().get("requests")
               * params_.dramAccessEnergy;
    out.noc = gpu.hierarchy().noc().stats().get("packets")
              * params_.nocPacketEnergy;

    out.compute = static_cast<double>(gpu.totalInstructions())
                  * params_.computeEnergy;
    out.smLeakage = leakageNj(
        params_.smLeakagePower * static_cast<double>(gpu.sms().size()),
        seconds);
    return out;
}

} // namespace fuse
