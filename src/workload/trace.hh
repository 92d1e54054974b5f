/**
 * @file
 * The decoded warp-instruction batch produced by workload generators and
 * consumed by the SM model. A memory instruction may expand into several
 * coalesced 128B transactions when threads diverge.
 */

#ifndef FUSE_WORKLOAD_TRACE_HH
#define FUSE_WORKLOAD_TRACE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fuse
{

/** Maximum transactions one warp memory instruction can expand into. */
constexpr std::uint32_t kMaxTransactions = 32;

/**
 * A decoded run of one warp's instructions — the unit the batch pipeline
 * moves. KernelGenerator::nextBatch fills it (one packed metadata record
 * per instruction; each memory instruction's transactions a
 * [txBegin, txEnd) span into the shared `addrs` buffer, instead of a
 * vector embedded in every instruction), Coalescer::coalesceBatch
 * shrinks the spans in place (txEnd moves; `lanes` keeps the
 * pre-coalesce width for the consumption-time statistics), and the SM
 * consumes instructions through `consumed` — so the generator and
 * coalescer run once per kCapacity instructions instead of once per
 * cycle.
 *
 * Layout note: per-warp state is sized and packed for the L1 cache
 * first, amortisation second — the SM's issue loop round-robins across
 * all resident warps, so a batch decoded now is issued dozens of warp
 * turns later and every byte of it is a probable cache miss at issue
 * time. Hence a small kCapacity and one 16-byte record per instruction
 * (pc + span + type bits in a single line-adjacent array) rather than a
 * separate array per field.
 */
struct InstructionBatch
{
    /** Instructions decoded per generator call. Deliberately small (see
     *  layout note): decode is already cheap per instruction — the
     *  expensive cursor calls amortise through the generator's
     *  kPrefetch queues, which are independent of this constant. With
     *  kMaxTransactions transactions each, span indices stay
     *  comfortably inside the std::uint16_t span fields. */
    static constexpr std::uint32_t kCapacity = 8;

    /** One instruction's decoded metadata, 16 bytes. */
    struct Decoded
    {
        Addr pc = 0;
        std::uint16_t txBegin = 0;  ///< Span start in addrs.
        std::uint16_t txEnd = 0;    ///< Span end (exclusive).
        /** Pre-coalesce transaction count (txEnd moves on coalesce). */
        std::uint16_t lanes = 0;
        AccessType type = AccessType::Read;
        bool isMem = false;
    };

    std::uint32_t size = 0;      ///< Decoded instructions in the batch.
    std::uint32_t consumed = 0;  ///< Instructions the consumer took.

    Decoded instr[kCapacity] = {};

    /** Shared line-aligned transaction buffer the spans point into.
     *  Coalescing leaves later spans in place (holes are cheaper than
     *  compaction the consumer never walks). */
    std::vector<Addr> addrs;

    bool exhausted() const { return consumed >= size; }

    /** Reset for refill; addrs keeps its capacity (no reallocation in
     *  steady state). */
    void clear()
    {
        size = 0;
        consumed = 0;
        addrs.clear();
    }
};

} // namespace fuse

#endif // FUSE_WORKLOAD_TRACE_HH
