/**
 * @file
 * Device energies of one L1D bank: the Table I scalars the paper takes
 * from CACTI 6.5 (SRAM) and NVSim (STT-MRAM), scaled to other bank
 * capacities. Latencies are not here: the bank builders in
 * cache/cache_bank.hh set them (1-cycle reads, 1- or 5-cycle writes).
 */

#ifndef FUSE_DEVICE_BANK_ENERGY_HH
#define FUSE_DEVICE_BANK_ENERGY_HH

#include <cstdint>

namespace fuse
{

/** Per-access dynamic energies (nJ) and leakage power (mW) of a bank. */
struct BankEnergy
{
    double readNj = 0.0;
    double writeNj = 0.0;
    double leakageMw = 0.0;
};

/**
 * An SRAM bank of @p size_bytes. Table I publishes 32KB (0.15/0.12 nJ,
 * 58 mW) and 16KB (0.09/0.07 nJ, 36 mW); other sizes scale dynamic
 * energy with sqrt(capacity) (bitline/wordline halves) and leakage with
 * capacity over a fixed peripheral floor.
 */
BankEnergy sramBankEnergy(std::uint32_t size_bytes);

/**
 * An STT-MRAM bank of @p size_bytes. Table I publishes 128KB (1.2/2.9 nJ,
 * 2.8 mW) and 64KB (0.26/2.4 nJ, 2.6 mW); reads torque nothing, so read
 * energy follows the sqrt(capacity) bitline rule, while the write is
 * dominated by the fixed MTJ switching cost. Only the CMOS peripherals
 * leak.
 */
BankEnergy sttBankEnergy(std::uint32_t size_bytes);

} // namespace fuse

#endif // FUSE_DEVICE_BANK_ENERGY_HH
