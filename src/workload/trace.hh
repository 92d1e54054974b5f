/**
 * @file
 * The decoded forms of a warp's instruction stream. The SM and walkTrace
 * take one memory instruction at a time (MemInstruction, from
 * KernelGenerator::nextMemory), with the compute instructions before it
 * as a count; InstructionBatch writes the same stream out one record per
 * instruction. InstructionBatch stays only for perfbench's frontend
 * replay and the parity tier. A memory instruction may expand into
 * several coalesced 128B transactions when threads diverge.
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
 * One decoded warp memory instruction. KernelGenerator::nextMemory
 * fills it (its lanes' line-aligned addresses in lane order, before
 * coalescing); the SM coalesces `addrs` in place and keeps the
 * instruction until the warp's compute credit runs out. `addrs` keeps
 * its capacity across decodes, so a warp's decodes do not allocate in
 * steady state.
 */
struct MemInstruction
{
    Addr pc = 0;
    AccessType type = AccessType::Read;
    std::vector<Addr> addrs;
};

/**
 * A decoded run of one warp's instructions, one record per instruction.
 * KernelGenerator::nextBatch fills it from the same memory-instruction
 * decoder nextMemory uses, writing the compute gaps out as records (one
 * packed metadata record per instruction; each memory instruction's
 * transactions a [txBegin, txEnd) span into the shared `addrs` buffer),
 * and Coalescer::coalesceBatch shrinks the spans in place (txEnd moves;
 * `lanes` keeps the pre-coalesce width). Only perfbench's frontend
 * replay (driveFrontend) and the parity tier read it; it goes with
 * nextBatch and coalesceBatch when perfbench next changes.
 */
struct InstructionBatch
{
    /** Instructions decoded per generator call. With kMaxTransactions
     *  transactions each, span indices stay comfortably inside the
     *  std::uint16_t span fields. */
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

    Decoded instr[kCapacity] = {};

    /** Shared line-aligned transaction buffer the spans point into.
     *  Coalescing leaves later spans in place (holes are cheaper than
     *  compaction the consumer never walks). */
    std::vector<Addr> addrs;

    /** Reset for refill; addrs keeps its capacity (no reallocation in
     *  steady state). */
    void clear()
    {
        size = 0;
        addrs.clear();
    }
};

} // namespace fuse

#endif // FUSE_WORKLOAD_TRACE_HH
