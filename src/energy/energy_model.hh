/**
 * @file
 * GPUWattch-substitute energy accounting: per-event dynamic energies plus
 * leakage x busy time for the L1D banks, L2, DRAM, interconnect, and SM
 * compute. Event counts come from the simulator's stat groups; L1D bank
 * energies come from the Table I scalars in device/bank_energy.hh.
 */

#ifndef FUSE_ENERGY_ENERGY_MODEL_HH
#define FUSE_ENERGY_ENERGY_MODEL_HH

#include <cstdint>

#include "common/types.hh"
#include "device/bank_energy.hh"

namespace fuse
{

class CacheBank;
class Gpu;

/** Table I energies of @p bank for its technology and capacity: what
 *  EnergyModel charges per array access and for leakage. */
BankEnergy bankEnergy(const CacheBank &bank);

/** Per-event energies (nJ) and leakage (mW) of the non-L1D components. */
struct EnergyParams
{
    /** GPU core clock (Hz) — converts cycles to seconds for leakage. */
    double coreClockHz = 700e6;  ///< §III-A: 700MHz external bus clock.

    // Dynamic energy per event, nJ. L1D banks use bankEnergy(); these
    // cover the rest of the chip.
    double l2AccessEnergy = 0.9;       ///< ECC-protected banked L2 access.
    double dramAccessEnergy = 24.0;    ///< 128B GDDR5 burst (~23 pJ/bit
                                       ///< I/O + activation amortised).
    double nocPacketEnergy = 2.1;      ///< 128B packet, butterfly hops.
    double computeEnergy = 0.45;       ///< Per warp instruction (issue +
                                       ///< register file + ALU).

    // Leakage, mW.
    double l2LeakagePower = 120.0;
    double smLeakagePower = 35.0;      ///< Per SM, excluding the L1D.
};

/** Energy decomposition of one simulation (all values in nJ). */
struct EnergyBreakdown
{
    double l1dDynamic = 0.0;
    double l1dLeakage = 0.0;
    double l2 = 0.0;
    double dram = 0.0;
    double noc = 0.0;
    double compute = 0.0;
    double smLeakage = 0.0;

    double l1dTotal() const { return l1dDynamic + l1dLeakage; }
    /** Off-chip service energy: everything beyond the SM/L1D boundary. */
    double offchip() const { return l2 + dram + noc; }
    double total() const
    {
        return l1dTotal() + offchip() + compute + smLeakage;
    }
    /** Fig. 1b's off-chip energy fraction. */
    double offchipFraction() const
    {
        const double t = total();
        return t > 0 ? offchip() / t : 0.0;
    }
};

/**
 * Computes an EnergyBreakdown from a finished Gpu run. The L1D bank
 * energies are derived from each bank's stats and the Table I device
 * parameters of its technology (L1DCache::banks()).
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params = EnergyParams{})
        : params_(params)
    {}

    EnergyBreakdown evaluate(const Gpu &gpu) const;

    const EnergyParams &params() const { return params_; }

  private:
    EnergyParams params_;
};

} // namespace fuse

#endif // FUSE_ENERGY_ENERGY_MODEL_HH
