/**
 * @file
 * KernelGenerator: turns a BenchmarkSpec into per-warp instruction streams.
 * The SM and walkTrace decode one memory instruction at a time
 * (nextMemory), the compute instructions before it arriving as one
 * count; nextBatch writes the same stream out one record per instruction
 * and stays only for perfbench's frontend replay and the parity tier.
 * Deterministic (seeded per benchmark/SM/warp) so every L1D
 * configuration sees byte-identical traces — required for fair
 * cross-config comparison. The one-instruction-at-a-time decoder these
 * replaced survives as the reference model in
 * tests/frontend_reference.hh.
 */

#ifndef FUSE_WORKLOAD_GENERATOR_HH
#define FUSE_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "workload/benchmarks.hh"
#include "workload/trace.hh"

namespace fuse
{

/**
 * Generates the warp-instruction stream of one SM for one benchmark.
 * Every warp executes the same kernel (same PCs) over different data —
 * the GPU SIMT property the read-level predictor exploits.
 */
class KernelGenerator
{
  public:
    /**
     * @param spec        the benchmark.
     * @param sm          SM index (warps are globally sliced across SMs).
     * @param num_sms     total SMs in the GPU.
     * @param warps_per_sm resident warps per SM.
     * @param seed        base seed (same for all configs of an experiment).
     */
    KernelGenerator(const BenchmarkSpec &spec, SmId sm,
                    std::uint32_t num_sms, std::uint32_t warps_per_sm,
                    std::uint64_t seed = 1);

    /** The PC every compute record of nextBatch carries. */
    static constexpr Addr kComputePc = 0xFFC;

    /**
     * Decode warp @p warp's next memory instruction into @p out (its PC,
     * type and uncoalesced lanes; out.addrs is replaced) and return the
     * number of compute instructions the warp executes before it. A
     * forced follow-up (the store half of a read-modify-write, the
     * second touch of a shared-reuse pair) returns 0. A warp's RNG is
     * drawn only when one of its memory instructions is decoded, so the
     * stream is the one a decoder taking one instruction at a time would
     * produce (tests/test_batch_parity.cc checks this against the scalar
     * reference model).
     */
    std::uint64_t nextMemory(WarpId warp, MemInstruction &out);

    /**
     * Decode the warp's next InstructionBatch::kCapacity instructions
     * into @p out in one call: compute gaps become one record per
     * instruction, memory instructions come from nextMemory's decoder
     * (transactions appended to the shared addrs buffer).
     *
     * @p max_instructions bounds decode-ahead at the end of a walk: the
     * batch is clamped to min(kCapacity, max_instructions) instructions,
     * so a reader about to reach its budget does not decode instructions
     * it will not consume. The decoded stream is a pure function of the
     * warp's cursor and RNG state, so the clamp changes no trace.
     */
    void nextBatch(WarpId warp, InstructionBatch &out,
                   std::uint64_t max_instructions = ~std::uint64_t(0));

    const BenchmarkSpec &spec() const { return *spec_; }

    /** PC of stream @p stream_index's memory instruction: its load half,
     *  or its store half when @p write_half. */
    static Addr streamPc(std::uint32_t stream_index, bool write_half);

  private:
    struct WarpState
    {
        Rng rng{1};
        std::vector<PatternCursor> cursors;  ///< One per stream.
        /** Stream index owing a forced follow-up access: the store half
         *  of a read-modify-write, or the second touch of a shared-reuse
         *  pair. */
        std::int32_t pendingStream = -1;
        bool pendingIsWrite = false;
        /** Compute instructions before the next fresh memory
         *  instruction (the unspent part of its gap). */
        std::uint64_t instructionsUntilMem = 0;
    };

    /** Decode warp @p warp's memory instruction that is due (its gap
     *  is spent): into @p pc and @p type, its lanes appended to
     *  @p addrs. A fresh one also draws the gap to the next. */
    void decodeMemory(WarpId warp, Addr &pc, AccessType &type,
                      std::vector<Addr> &addrs);
    std::uint32_t pickStream(WarpState &state);
    std::uint64_t computeGap(WarpState &state);

    const BenchmarkSpec *spec_;
    SmId sm_;
    std::uint32_t numSms_;
    std::uint32_t warpsPerSm_;
    std::vector<WarpState> warps_;
    std::vector<double> cumulativeWeights_;
    std::vector<Addr> streamBases_;
    double totalWeight_ = 0.0;
    /** spec_->memProbability(), cached — computeGap runs per memory
     *  instruction. */
    double memProb_ = 0.0;
    /** log(1 - memProb_), hoisted out of computeGap's inverse-CDF draw
     *  (the quotient is still computed per draw, so the sampled gaps are
     *  bit-identical to evaluating both logarithms inline). */
    double logOneMinusMemProb_ = 0.0;
};

} // namespace fuse

#endif // FUSE_WORKLOAD_GENERATOR_HH
