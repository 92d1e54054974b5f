/**
 * @file
 * Test-only reference model of the workload frontend: the scalar decoder
 * and coalescer the production frontend replaced (one instruction per
 * call, its transactions in a vector of their own); MemoryReader, which
 * consumes the production memory-instruction path the way the SM does;
 * and BatchReader, which consumes the batch path the way perfbench's
 * frontend replay does. test_batch_parity checks the production paths
 * against the scalar model field by field; test_workload pins all three
 * to the pre-batch trace fingerprints.
 */

#ifndef FUSE_TESTS_FRONTEND_REFERENCE_HH
#define FUSE_TESTS_FRONTEND_REFERENCE_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "gpu/coalescer.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"
#include "workload/patterns.hh"
#include "workload/trace.hh"

namespace fuse
{

/** One warp-level instruction. */
struct WarpInstruction
{
    bool isMem = false;
    AccessType type = AccessType::Read;
    Addr pc = 0;
    /** Line-aligned transaction addresses (empty for compute). */
    std::vector<Addr> transactions;
};

/**
 * The scalar generator: KernelGenerator's seeding, stream layout and
 * decode rules, one instruction per next() call, each in a vector of its
 * own.
 */
class ScalarKernelGenerator
{
  public:
    ScalarKernelGenerator(const BenchmarkSpec &spec, SmId sm,
                          std::uint32_t num_sms, std::uint32_t warps_per_sm,
                          std::uint64_t seed = 1)
        : spec_(&spec), firstWarp_(sm * warps_per_sm),
          totalWarps_(num_sms * warps_per_sm), warps_(warps_per_sm)
    {
        Rng base_scatter(seed ^ 0xA5A5A5A5ull);
        for (std::size_t s = 0; s < spec.streams.size(); ++s) {
            totalWeight_ += spec.streams[s].weight;
            cumulativeWeights_.push_back(totalWeight_);
            const Addr scatter = base_scatter.below(1u << 18) * kLineSize;
            streamBases_.push_back(kRegionStride * (s + 1) + scatter);
        }
        memProb_ = spec.memProbability();
        for (WarpId w = 0; w < warps_per_sm; ++w) {
            WarpState &state = warps_[w];
            state.rng = Rng(seed * 0x100000001b3ull
                            + (std::uint64_t(sm) << 20) + w);
            state.cursors.resize(spec.streams.size());
            state.instructionsUntilMem = computeGap(state);
        }
    }

    /** Warp @p warp's next instruction is a forced follow-up access. */
    bool followUpDue(WarpId warp) const
    {
        return warps_[warp].pendingStream >= 0;
    }

    /** Produce warp @p warp's next instruction. */
    WarpInstruction
    next(WarpId warp)
    {
        WarpState &state = warps_[warp];
        WarpInstruction instr;

        // A forced follow-up access takes priority: the store half of a
        // read-modify-write, or the second touch of a shared-reuse pair.
        if (state.pendingStream >= 0) {
            const auto s = static_cast<std::uint32_t>(state.pendingStream);
            const bool is_write = state.pendingIsWrite;
            state.pendingStream = -1;
            instr.isMem = true;
            instr.type = is_write ? AccessType::Write : AccessType::Read;
            instr.pc = streamPc(s, is_write);
            generate(state, warp, s, instr.transactions);
            return instr;
        }

        if (state.instructionsUntilMem > 0) {
            --state.instructionsUntilMem;
            instr.pc = kPcBase - 4;  // generic compute PC
            return instr;
        }

        // Memory instruction: pick a stream and generate its transactions.
        state.instructionsUntilMem = computeGap(state);
        const std::uint32_t s = pickStream(state);
        const StreamSpec &stream = spec_->streams[s];
        instr.isMem = true;
        const bool is_write = state.rng.chance(stream.writeProb);

        if (stream.kind == PatternKind::PrivateAccum) {
            // Load now; the store, if the draw says "update", next.
            instr.pc = streamPc(s, /*write_half=*/false);
            generate(state, warp, s, instr.transactions);
            if (is_write) {
                state.pendingStream = static_cast<std::int32_t>(s);
                state.pendingIsWrite = true;
            }
            return instr;
        }

        instr.type = is_write ? AccessType::Write : AccessType::Read;
        instr.pc = streamPc(s, is_write);
        generate(state, warp, s, instr.transactions);
        // Shared structures are touched twice back-to-back.
        if (stream.kind == PatternKind::SharedReuse
            && state.cursors[s].position() % 2 == 1) {
            state.pendingStream = static_cast<std::int32_t>(s);
            state.pendingIsWrite = is_write;
        }
        return instr;
    }

  private:
    static constexpr Addr kRegionStride = Addr(1) << 30;
    static constexpr Addr kPcBase = 0x1000;

    struct WarpState
    {
        Rng rng{1};
        std::vector<PatternCursor> cursors;
        std::int32_t pendingStream = -1;
        bool pendingIsWrite = false;
        std::uint64_t instructionsUntilMem = 0;
    };

    static Addr
    streamPc(std::uint32_t stream_index, bool write_half)
    {
        return kPcBase + (stream_index * 2 + (write_half ? 1 : 0)) * 4;
    }

    void
    generate(WarpState &state, WarpId warp, std::uint32_t s,
             std::vector<Addr> &out)
    {
        state.cursors[s].generate(spec_->streams[s], streamBases_[s],
                                  firstWarp_ + warp, totalWarps_, state.rng,
                                  out);
    }

    std::uint64_t
    computeGap(WarpState &state)
    {
        // Inverse-CDF draw of a geometric gap with mean 1/p - 1.
        if (memProb_ >= 1.0)
            return 0;
        double u = state.rng.uniform();
        if (u <= 0.0)
            u = 1e-12;
        return static_cast<std::uint64_t>(std::log(u)
                                          / std::log(1.0 - memProb_));
    }

    std::uint32_t
    pickStream(WarpState &state)
    {
        const double x = state.rng.uniform() * totalWeight_;
        for (std::size_t s = 0; s < cumulativeWeights_.size(); ++s) {
            if (x < cumulativeWeights_[s])
                return static_cast<std::uint32_t>(s);
        }
        return static_cast<std::uint32_t>(cumulativeWeights_.size() - 1);
    }

    const BenchmarkSpec *spec_;
    WarpId firstWarp_;
    std::uint32_t totalWarps_;
    std::vector<WarpState> warps_;
    std::vector<double> cumulativeWeights_;
    std::vector<Addr> streamBases_;
    double totalWeight_ = 0.0;
    double memProb_ = 0.0;
};

/**
 * The scalar coalescer: rewrite @p addresses in place to its unique line
 * bases, in first-touch order.
 */
inline void
coalesceReference(std::vector<Addr> &addresses)
{
    std::size_t out = 0;
    for (std::size_t i = 0; i < addresses.size(); ++i) {
        const Addr base = lineBase(addresses[i]);
        bool seen = false;
        for (std::size_t j = 0; j < out && !seen; ++j)
            seen = addresses[j] == base;
        if (!seen)
            addresses[out++] = base;
    }
    addresses.resize(out);
}

/**
 * Consumes a production KernelGenerator the way the SM does: each warp
 * holds its next memory instruction, decoded through nextMemory(), and
 * a credit of the compute instructions before it. next() issues from
 * the credit, then hands out the held instruction (uncoalesced) and
 * decodes the warp's following one. Instructions still held at the end
 * are never consumed (the SM's run-end over-generation).
 */
class MemoryReader
{
  public:
    MemoryReader(const BenchmarkSpec &spec, SmId sm, std::uint32_t num_sms,
                 std::uint32_t warps_per_sm, std::uint64_t seed = 1)
        : gen_(spec, sm, num_sms, warps_per_sm, seed), warps_(warps_per_sm)
    {
        for (WarpId w = 0; w < warps_per_sm; ++w)
            warps_[w].credit = gen_.nextMemory(w, warps_[w].instr);
    }

    /** Warp @p w's next instruction as a scalar record. */
    WarpInstruction
    next(WarpId w)
    {
        Warp &warp = warps_[w];
        if (warp.credit) {
            --warp.credit;
            return {false, AccessType::Read, KernelGenerator::kComputePc,
                    {}};
        }
        WarpInstruction instr{true, warp.instr.type, warp.instr.pc,
                              warp.instr.addrs};
        warp.credit = gen_.nextMemory(w, warp.instr);
        return instr;
    }

  private:
    struct Warp
    {
        MemInstruction instr;
        std::uint64_t credit = 0;
    };

    KernelGenerator gen_;
    std::vector<Warp> warps_;
};

/**
 * Consumes a production KernelGenerator through the batch path, the way
 * perfbench's frontend replay does: one InstructionBatch per warp,
 * refilled through nextBatch() (and, when asked to coalesce,
 * coalesceBatch()) once every record is popped. Instructions still
 * decoded at the end are never popped.
 */
class BatchReader
{
  public:
    BatchReader(const BenchmarkSpec &spec, SmId sm, std::uint32_t num_sms,
                std::uint32_t warps_per_sm, std::uint64_t seed = 1)
        : gen_(spec, sm, num_sms, warps_per_sm, seed),
          batches_(warps_per_sm), consumed_(warps_per_sm, 0)
    {
    }

    /** Pop warp @p w's next decoded instruction; its transactions are
     *  batch(w).addrs[txBegin, txEnd). */
    const InstructionBatch::Decoded &
    pop(WarpId w, bool coalesce = false)
    {
        InstructionBatch &batch = batches_[w];
        std::uint32_t &consumed = consumed_[w];
        if (consumed == batch.size) {
            gen_.nextBatch(w, batch);
            consumed = 0;
            if (coalesce)
                Coalescer::coalesceBatch(batch);
        }
        return batch.instr[consumed++];
    }

    const InstructionBatch &batch(WarpId w) const { return batches_[w]; }

    /** pop() copied into a scalar record (uncoalesced). */
    WarpInstruction
    next(WarpId w)
    {
        const InstructionBatch::Decoded &d = pop(w);
        const auto &addrs = batches_[w].addrs;
        return {d.isMem, d.type, d.pc,
                std::vector<Addr>(addrs.begin() + d.txBegin,
                                  addrs.begin() + d.txEnd)};
    }

  private:
    KernelGenerator gen_;
    std::vector<InstructionBatch> batches_;
    /** Records of each warp's batch already popped. */
    std::vector<std::uint32_t> consumed_;
};

} // namespace fuse

#endif // FUSE_TESTS_FRONTEND_REFERENCE_HH
