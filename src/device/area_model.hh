/**
 * @file
 * Transistor-level area estimator reproducing the paper's Table III: the
 * component-by-component transistor counts of a 32KB L1-SRAM cache and of
 * Dy-FUSE (data/tag arrays, sense amplifiers, write drivers, comparators,
 * decoders, NVM-CBF, swap buffer, request queue, read-level predictor).
 */

#ifndef FUSE_DEVICE_AREA_MODEL_HH
#define FUSE_DEVICE_AREA_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace fuse
{

/** One row of the area table. */
struct AreaComponent
{
    std::string name;
    std::uint64_t transistors = 0;
};

/** A full area estimate (sum of components). */
struct AreaEstimate
{
    std::vector<AreaComponent> components;

    std::uint64_t total() const;
    /** Transistor count of a named component (0 if absent). */
    std::uint64_t of(const std::string &name) const;
};

/**
 * Area estimator following §V-C's counting rules:
 *  - SRAM cell: 6T; tag entry: 19-bit tag + valid + dirty.
 *  - sense amplifier: 8T sense + 8T latch per bit; write driver: 14T/bit.
 *  - comparator: 4T per tag bit; decoders: predecode + NOR + driver.
 *  - NVM-CBF counter: 4T + 2 MTJ; swap-buffer entry: 1024T;
 *    request-queue entry: 960T; sampler 648T; prediction table 1672T.
 */
class AreaModel
{
  public:
    /** Table III, left column: conventional 32KB 4-way SRAM L1D. */
    static AreaEstimate l1Sram(std::uint32_t size_bytes = 32 * 1024);

    /** Table III, right column: Dy-FUSE (16KB SRAM + 64KB STT-MRAM). */
    static AreaEstimate dyFuse(std::uint32_t sram_bytes = 16 * 1024,
                               std::uint32_t stt_bytes = 64 * 1024);

    /** Relative area overhead of Dy-FUSE vs the SRAM baseline
     *  (paper: < 0.7%). MTJs stack above the access transistors, so only
     *  transistor counts enter the comparison. */
    static double dyFuseOverhead();
};

} // namespace fuse

#endif // FUSE_DEVICE_AREA_MODEL_HH
