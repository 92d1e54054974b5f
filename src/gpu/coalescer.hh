/**
 * @file
 * Memory coalescer: collapses the per-thread addresses of a warp memory
 * instruction into the minimal set of 128B transactions (§III-A: a
 * warp's 32 4B lanes coalesce into one 128B request when contiguous;
 * divergent warps emit several transactions). The SM coalesces one
 * instruction's span at a time (coalesceSpan); coalesceBatch does each
 * span of a decoded batch. The vector-based coalescer these replaced
 * survives as the reference model in tests/frontend_reference.hh.
 */

#ifndef FUSE_GPU_COALESCER_HH
#define FUSE_GPU_COALESCER_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "workload/trace.hh"

namespace fuse
{

/** Stateless coalescing with statistics. */
class Coalescer
{
  public:
    explicit Coalescer(StatGroup *stats = nullptr)
    {
        // Handles cached once at construction (stats.hh contract): each
        // consumed instruction is recorded without any per-call
        // scalar() lookups.
        if (stats) {
            statInstructions_ = &stats->scalar("coalesce_instructions");
            statTransactions_ = &stats->scalar("coalesce_transactions");
            statLanesMerged_ = &stats->scalar("coalesce_lanes_merged");
        }
    }

    /**
     * Deduplicate one memory instruction's @p lanes addresses at @p span
     * in place to its unique line-aligned transactions, in first-touch
     * order (the LSU issues them serially), and return their count; the
     * survivors compact to the span's start. Statistics are NOT recorded
     * here: a decoded instruction can outlive the run unconsumed, so the
     * consumer records each instruction as it consumes it via
     * noteConsumed(), keeping coalesce_* counters exactly what a
     * per-instruction pipeline would report at every observation point.
     */
    static std::uint32_t coalesceSpan(Addr *span, std::uint32_t lanes);

    /** coalesceSpan() over every memory instruction's span of @p batch
     *  within the shared buffer: spans shrink (txEnd moves), later spans
     *  stay put. */
    static void coalesceBatch(InstructionBatch &batch);

    /** Record one consumed memory instruction: @p lanes pre-coalesce
     *  addresses became @p transactions line transactions. */
    void noteConsumed(std::uint32_t lanes, std::uint32_t transactions)
    {
        if (statInstructions_) {
            ++(*statInstructions_);
            statTransactions_->add(transactions);
            statLanesMerged_->add(lanes - transactions);
        }
    }

  private:
    // Cached counters (null without a stats group).
    StatGroup::Scalar *statInstructions_ = nullptr;
    StatGroup::Scalar *statTransactions_ = nullptr;
    StatGroup::Scalar *statLanesMerged_ = nullptr;
};

} // namespace fuse

#endif // FUSE_GPU_COALESCER_HH
