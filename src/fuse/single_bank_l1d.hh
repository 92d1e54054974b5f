/**
 * @file
 * The one-bank L1D organisations. They differ only in device,
 * associativity and dead-write bypass:
 *
 *  - L1-SRAM  : 4-way set-associative SRAM (GTX480-like baseline).
 *  - FA-SRAM  : fully associative SRAM with parallel comparators
 *               (circuit-infeasible at scale, evaluated for reference).
 *  - By-NVM   : 4-way STT-MRAM at 4x the capacity for the same area,
 *               with DASCA-style dead-write bypass prediction.
 *  - STT-MRAM : By-NVM without the bypass (Fig. 3's "STT-MRAM GPU").
 *
 * The STT-MRAM bank pays the 5-cycle write penalty: it blocks while an
 * MTJ write is in flight, so write bursts stall the SM.
 */

#ifndef FUSE_FUSE_SINGLE_BANK_L1D_HH
#define FUSE_FUSE_SINGLE_BANK_L1D_HH

#include <optional>

#include "cache/cache_bank.hh"
#include "fuse/l1d.hh"
#include "fuse/l1d_factory.hh"
#include "fuse/predictor.hh"

namespace fuse
{

/** Non-blocking write-back L1D with one bank and an MSHR. */
class SingleBankL1D : public L1DCache
{
  public:
    /** @p kind is L1Sram, FaSram, ByNvm or PureNvm; @p sm owns it. */
    SingleBankL1D(L1DKind kind, const L1DParams &params,
                  MemoryHierarchy &hierarchy, SmId sm = 0);

    L1DResult access(const MemRequest &req, Cycle now) override;
    L1DKind kind() const override { return kind_; }
    std::vector<const CacheBank *> banks() const override
    {
        return {&bank_};
    }
    const ReadLevelPredictor *predictor() const override
    {
        return predictor_ ? &*predictor_ : nullptr;
    }

  private:
    L1DKind kind_;
    CacheBank bank_;
    /** The dead-write predictor: By-NVM only, the one kind that
     *  bypasses. */
    std::optional<ReadLevelPredictor> predictor_;
};

} // namespace fuse

#endif // FUSE_FUSE_SINGLE_BANK_L1D_HH
