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
     * into @p out in one call (SoA arrays, transactions appended to the
     * shared addrs buffer). Every warp owns its RNG and cursors, so the
     * decoded stream is the one a decoder taking one instruction at a
     * time would produce (tests/test_batch_parity.cc checks this against
     * the scalar reference model): pre-decoding a warp's run consumes its
     * draws in decode order, and RNG-free pattern kinds are additionally
     * prefetched through per-stream cursor queues refilled kPrefetch
     * generate-equivalents (one memory instruction's transactions each)
     * at a time.
     *
     * @p max_instructions bounds decode-ahead at the end of the run: the
     * batch is clamped to min(kCapacity, max_instructions) instructions
     * and stream-queue refills to min(kPrefetch, still-undecoded), so an
     * SM about to retire its budget no longer generates addresses nobody
     * will consume. Clamping is trace-safe — the decoded stream is a
     * pure function of per-warp cursor/RNG state, and refill boundaries
     * change neither content nor draw order — it only trims work.
     */
    void nextBatch(WarpId warp, InstructionBatch &out,
                   std::uint64_t max_instructions = ~std::uint64_t(0));

    const BenchmarkSpec &spec() const { return *spec_; }

    /** PC of stream @p stream_index's memory instruction. */
    Addr streamPc(std::uint32_t stream_index, bool write_half) const;

  private:
    /**
     * Prefetched generate-equivalents of one RNG-free (warp, stream)
     * cursor: a block of future transaction addresses produced by one
     * generateBatch call and handed out one per decoded instruction.
     * Legal only for kinds whose cursors never draw from the warp RNG
     * after first touch (see PatternCursor::generateBatch).
     */
    struct StreamQueue
    {
        std::vector<Addr> lines;    ///< Prefetched addresses.
        std::uint32_t head = 0;     ///< Next address to hand out.
        std::uint64_t basePos = 0;  ///< Cursor position of lines[0].
    };

    struct WarpState
    {
        Rng rng{1};
        std::vector<PatternCursor> cursors;  ///< One per stream.
        std::vector<StreamQueue> queues;     ///< One per stream.
        /** Stream index owing a forced follow-up access: the store half
         *  of a read-modify-write, or the second touch of a shared-reuse
         *  pair. */
        std::int32_t pendingStream = -1;
        bool pendingIsWrite = false;
        std::uint64_t instructionsUntilMem = 0;
    };

    /** Generate-equivalents per RNG-free cursor refill: large enough to
     *  amortise the dispatch (the batch factor the profile tracks),
     *  small enough that a queue is a few cache lines. */
    static constexpr std::uint32_t kPrefetch = 64;

    /** Kinds whose cursors never consume warp RNG after their first
     *  call — the ones nextBatch may prefetch ahead of decode order. */
    static bool rngFreeKind(PatternKind kind)
    {
        return kind != PatternKind::RandomIrregular
               && kind != PatternKind::HotWorkingSet;
    }

    /**
     * Append stream @p s's next generate-equivalent for @p warp to
     * @p out (queue pop for RNG-free kinds, refilling up to kPrefetch at
     * a time, clamped to @p remaining still-undecoded instructions;
     * direct cursor call at the decode point otherwise). Returns the
     * cursor position AFTER the consumed equivalent — the shared-reuse
     * pair parity the decode loop keys on.
     */
    std::uint64_t appendTransactions(WarpState &state, WarpId warp,
                                     std::uint32_t s,
                                     std::vector<Addr> &out,
                                     std::uint64_t remaining);

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
