/**
 * @file
 * KernelGenerator: turns a BenchmarkSpec into per-warp instruction streams,
 * decoded a batch at a time. Deterministic (seeded per benchmark/SM/warp)
 * so every L1D configuration sees byte-identical traces — required for
 * fair cross-config comparison. The one-instruction-at-a-time decoder the
 * batch path replaced survives as the reference model in
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

    /**
     * Decode the warp's next InstructionBatch::kCapacity instructions
     * into @p out in one call (transactions appended to the shared addrs
     * buffer). Every warp owns its RNG and cursors, and each memory
     * instruction's cursor generates at its decode point, so the decoded
     * stream is the one a decoder taking one instruction at a time would
     * produce (tests/test_batch_parity.cc checks this against the scalar
     * reference model).
     *
     * @p max_instructions bounds decode-ahead at the end of the run: the
     * batch is clamped to min(kCapacity, max_instructions) instructions,
     * so an SM about to retire its budget does not decode instructions
     * nobody will consume. The decoded stream is a pure function of the
     * warp's cursor and RNG state, so the clamp changes no trace.
     */
    void nextBatch(WarpId warp, InstructionBatch &out,
                   std::uint64_t max_instructions = ~std::uint64_t(0));

    const BenchmarkSpec &spec() const { return *spec_; }

    /** PC of stream @p stream_index's memory instruction. */
    Addr streamPc(std::uint32_t stream_index, bool write_half) const;

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
        std::uint64_t instructionsUntilMem = 0;
    };

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
    /** spec_->memProbability(), cached — computeGap runs per instruction. */
    double memProb_ = 0.0;
    /** log(1 - memProb_), hoisted out of computeGap's inverse-CDF draw
     *  (the quotient is still computed per draw, so the sampled gaps are
     *  bit-identical to evaluating both logarithms inline). */
    double logOneMinusMemProb_ = 0.0;
};

} // namespace fuse

#endif // FUSE_WORKLOAD_GENERATOR_HH
