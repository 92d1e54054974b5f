/**
 * @file
 * The FUSE heterogeneous L1D (§III-§IV): an SRAM bank and an STT-MRAM bank
 * fused behind one cache controller with an arbitration decision tree
 * (Fig. 9). Four evaluated organisations share this implementation:
 *
 *  - Hybrid    : 2-way SRAM + 2-way STT-MRAM, no FUSE plumbing — a busy
 *                STT-MRAM write blocks the whole L1D.
 *  - Base-FUSE : Hybrid + swap buffer + tag queue (non-blocking STT bank).
 *  - FA-FUSE   : Base-FUSE + approximated fully-associative STT bank
 *                (CBF-guided serialized tag search, FIFO replacement).
 *  - Dy-FUSE   : FA-FUSE + read-level predictor placement (WM -> SRAM,
 *                WORM/neutral -> STT-MRAM, WORO -> bypass to L2).
 */

#ifndef FUSE_FUSE_HYBRID_L1D_HH
#define FUSE_FUSE_HYBRID_L1D_HH

#include <memory>

#include "cache/cache_bank.hh"
#include "fuse/assoc_approx.hh"
#include "fuse/l1d.hh"
#include "fuse/l1d_factory.hh"
#include "fuse/predictor.hh"
#include "fuse/swap_buffer.hh"
#include "fuse/tag_queue.hh"

namespace fuse
{

/** The FUSE hybrid L1D cache controller. */
class HybridL1D : public L1DCache
{
  public:
    /** @p kind is Hybrid, BaseFuse, FaFuse or DyFuse; @p sm owns it. */
    HybridL1D(L1DKind kind, const L1DParams &params,
              MemoryHierarchy &hierarchy, SmId sm = 0);

    L1DResult access(const MemRequest &req, Cycle now) override;
    void tick(Cycle now) override;
    L1DKind kind() const override { return kind_; }
    std::vector<const CacheBank *> banks() const override
    {
        return {&sram_, &stt_};
    }
    const StatGroup *predictorStats() const override
    {
        return &predictor_.stats();
    }

    CacheBank &sramBank() { return sram_; }
    CacheBank &sttBank() { return stt_; }
    ReadLevelPredictor &predictor() { return predictor_; }
    SwapBuffer &swapBuffer() { return swapBuffer_; }
    AssocApprox *approx() { return approx_.get(); }

  private:
    /**
     * The access pipeline resolves each bank's residency exactly once at
     * the top of access() and threads the probes (plus the CBF search
     * result) by value through the hit/miss/fill handlers below; every
     * bank operation downstream is *At() against a resolved probe. A
     * probe is a snapshot — each handler documents why no bank mutation
     * intervenes between resolution and use.
     */

    /** Handle a hit in the STT-MRAM bank per the decision tree. */
    L1DResult sttHit(const MemRequest &req, Cycle now,
                     const TagArray::Probe &stt_probe,
                     const TagArray::Probe &sram_probe,
                     std::uint32_t stt_partition);

    /** Allocate a missing line according to the placement policy. */
    L1DResult handleMiss(const MemRequest &req, Cycle now,
                         const TagArray::Probe &sram_probe,
                         const TagArray::Probe &stt_probe,
                         std::uint32_t stt_partition);

    /** Fill @p req's line into the SRAM bank, migrating the victim;
     *  with the predictor, the line records @p level, the placement's
     *  classification. Pre-condition (non-blocking kinds):
     *  !migrationBlocked(). */
    void fillSram(const MemRequest &req, Cycle now,
                  const TagArray::Probe &sram_probe, ReadLevel level);

    /** Fill @p req's line into the STT-MRAM bank, recording @p level as
     *  fillSram() does. Pre-condition (non-blocking kinds): the tag
     *  queue is not full. */
    void fillStt(const MemRequest &req, Cycle now,
                 const TagArray::Probe &stt_probe,
                 std::uint32_t stt_partition, ReadLevel level);

    /** Evict @p line out of the L1D (scored by the predictor, written
     *  back to L2 if dirty). */
    void evictToL2(const CacheLine &line, Cycle now);

    /** Record predictor accuracy for a block leaving the L1D. */
    void recordLineOutcome(const CacheLine &line);

    /** Write the migrating @p line into the STT bank on @p port, keeping
     *  its dirty flag, access counts and prediction; the STT victim
     *  leaves the L1D. */
    void installInStt(const CacheLine &line, Cycle now,
                      CacheBank::Port port);

    /** True when an SRAM victim has no swap-buffer slot or tag-queue
     *  entry to migrate through (non-blocking kinds). */
    bool migrationBlocked() const
    {
        return swapBuffer_.full() || tagQueue_.full();
    }

    /** Migrate an SRAM victim towards the STT bank (swap buffer path).
     *  Pre-condition (non-blocking kinds): !migrationBlocked(). */
    void migrateToStt(const CacheLine &victim, Cycle now);

    /**
     * Flush the tag queue for a payload write, then re-queue a Migrate
     * command for every line still parked in the swap buffer (their data
     * survives the flush; only the meta entries were dropped).
     */
    void flushTagQueue();

    L1DKind kind_;
    /** Swap buffer + tag queue (Base-FUSE onward); without them a busy
     *  STT-MRAM write blocks the whole L1D. */
    bool nonBlocking_;
    /** Approximated fully-associative STT bank (FA-FUSE, Dy-FUSE). */
    bool approxFullAssoc_;
    /** Read-level predictor placement (Dy-FUSE). */
    bool usePredictor_;
    CacheBank sram_;
    CacheBank stt_;
    TagQueue tagQueue_;
    SwapBuffer swapBuffer_;
    ReadLevelPredictor predictor_;
    std::unique_ptr<AssocApprox> approx_;

    // Hot-path counters cached out of the string-keyed map at
    // construction (see StatGroup handle-stability contract; the common
    // MSHR/writeback counters live in the L1DCache base).
    StatGroup::Scalar *statStallTagSearch_;
    StatGroup::Scalar *statMigrationsSramToStt_;
    StatGroup::Scalar *statMigrationsSttToSram_;
    StatGroup::Scalar *statMigrationsDrained_;
    StatGroup::Scalar *statWoroEvictions_;
    StatGroup::Scalar *statSramHits_;
    StatGroup::Scalar *statSttReadHits_;
    StatGroup::Scalar *statSttWriteHits_;
    StatGroup::Scalar *statSttQueuedReads_;
    StatGroup::Scalar *statSwapBufferHits_;
};

} // namespace fuse

#endif // FUSE_FUSE_HYBRID_L1D_HH
