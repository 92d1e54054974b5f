/**
 * @file
 * Memory coalescer: collapses the per-thread addresses of a warp memory
 * instruction into the minimal set of 128B transactions (§III-A: a
 * warp's 32 4B lanes coalesce into one 128B request when contiguous;
 * divergent warps emit several transactions). The SM coalesces one
 * instruction's span at a time (coalesceSpan) and counts the coalesce
 * statistics itself, when a warp consumes the instruction;
 * coalesceBatch does each span of a decoded batch. The vector-based
 * coalescer these replaced survives as the reference model in
 * tests/frontend_reference.hh.
 */

#ifndef FUSE_GPU_COALESCER_HH
#define FUSE_GPU_COALESCER_HH

#include <cstdint>

#include "common/types.hh"
#include "workload/trace.hh"

namespace fuse
{

/** Stateless coalescing. */
class Coalescer
{
  public:
    /**
     * Deduplicate one memory instruction's @p lanes addresses at @p span
     * in place to its unique line-aligned transactions, in first-touch
     * order (the LSU issues them serially), and return their count; the
     * survivors compact to the span's start.
     */
    static std::uint32_t coalesceSpan(Addr *span, std::uint32_t lanes);

    /** coalesceSpan() over every memory instruction's span of @p batch
     *  within the shared buffer: spans shrink (txEnd moves), later spans
     *  stay put. */
    static void coalesceBatch(InstructionBatch &batch);
};

} // namespace fuse

#endif // FUSE_GPU_COALESCER_HH
