/**
 * @file
 * Builds any of the evaluated L1D organisations from one parameter bundle.
 */

#ifndef FUSE_FUSE_L1D_FACTORY_HH
#define FUSE_FUSE_L1D_FACTORY_HH

#include <memory>

#include "fuse/assoc_approx.hh"
#include "fuse/l1d.hh"
#include "fuse/predictor.hh"

namespace fuse
{

/**
 * Everything needed to build any organisation besides its kind. Each
 * constructor reads only the fields that apply to its kind; the
 * defaults are Table I.
 */
struct L1DParams
{
    /** Total SRAM-equivalent area budget (Table I: a 32KB SRAM L1D). */
    std::uint32_t areaBudgetBytes = 32 * 1024;
    /** Fraction of the area given to SRAM in hybrid organisations
     *  (Fig. 18 sweeps 1/16..3/4; 1/2 is the paper's pick). */
    double sramAreaFraction = 0.5;
    /** STT-MRAM density advantage at equal area. */
    double sttDensity = 4.0;

    std::uint32_t sramWays = 2;        ///< Hybrid SRAM associativity.
    std::uint32_t sttWays = 2;         ///< Hybrid STT associativity.
    std::uint32_t baselineWays = 4;    ///< L1-SRAM associativity.
    std::uint32_t nvmWays = 4;         ///< By-NVM associativity.
    std::uint32_t mshrEntries = 32;
    std::uint32_t tagQueueEntries = 16;
    std::uint32_t swapBufferEntries = 3;
    PredictorConfig predictor;
    AssocApproxConfig approx;

    /** SRAM bank bytes for hybrid kinds under the area budget. */
    std::uint32_t hybridSramBytes() const;
    /** STT bank bytes for hybrid kinds under the area budget. */
    std::uint32_t hybridSttBytes() const;
    /** Pure STT capacity under the full area budget (By-NVM). */
    std::uint32_t pureNvmBytes() const;
};

/** Build the organisation @p kind of SM @p sm against @p hierarchy: the
 *  only switch over kinds that picks a controller. */
std::unique_ptr<L1DCache> makeL1D(L1DKind kind, const L1DParams &params,
                                  MemoryHierarchy &hierarchy, SmId sm = 0);

} // namespace fuse

#endif // FUSE_FUSE_L1D_FACTORY_HH
