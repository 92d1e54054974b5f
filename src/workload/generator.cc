#include "workload/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace fuse
{

namespace
{
/** Per-stream virtual address regions are spaced far apart. */
constexpr Addr kRegionStride = Addr(1) << 30;
/** Benchmarks get distinct PC pages so predictor state can't alias.
 *  The stream PCs start just above the generic compute PC. */
constexpr Addr kPcBase = KernelGenerator::kComputePc + 4;
} // namespace

KernelGenerator::KernelGenerator(const BenchmarkSpec &spec, SmId sm,
                                 std::uint32_t num_sms,
                                 std::uint32_t warps_per_sm,
                                 std::uint64_t seed)
    : spec_(&spec), sm_(sm), numSms_(num_sms), warpsPerSm_(warps_per_sm),
      warps_(warps_per_sm)
{
    if (spec.streams.empty())
        fuse_fatal("benchmark '%s' has no streams", spec.name.c_str());
    if (!(std::isfinite(spec.apki) && spec.apki > 0.0))
        fuse_fatal("benchmark '%s' has apki %g; it must be finite and "
                   "positive", spec.name.c_str(), spec.apki);

    cumulativeWeights_.reserve(spec.streams.size());
    streamBases_.reserve(spec.streams.size());
    Rng base_scatter(seed ^ 0xA5A5A5A5ull);
    for (std::size_t s = 0; s < spec.streams.size(); ++s) {
        totalWeight_ += spec.streams[s].weight;
        cumulativeWeights_.push_back(totalWeight_);
        // Scatter each region by a random sub-offset: real allocations are
        // not power-of-two aligned, and perfectly aligned bases would make
        // partial-tag structures (the predictor sampler) alias across
        // streams.
        const Addr scatter = base_scatter.below(1u << 18) * kLineSize;
        streamBases_.push_back(kRegionStride * (s + 1) + scatter);
    }

    memProb_ = spec.memProbability();
    if (memProb_ < 1.0)
        logOneMinusMemProb_ = std::log(1.0 - memProb_);
    for (WarpId w = 0; w < warps_per_sm; ++w) {
        auto &state = warps_[w];
        state.rng = Rng(seed * 0x100000001b3ull
                        + (std::uint64_t(sm) << 20) + w);
        state.cursors.resize(spec.streams.size());
        state.instructionsUntilMem = computeGap(state);
    }
}

Addr
KernelGenerator::streamPc(std::uint32_t stream_index, bool write_half)
{
    // Each stream is "a static memory instruction" in the kernel: one PC
    // for its load half and one for its store half — exactly the
    // granularity the PC-indexed read-level predictor keys on.
    return kPcBase + (stream_index * 2 + (write_half ? 1 : 0)) * 4;
}

std::uint64_t
KernelGenerator::computeGap(WarpState &state)
{
    // Geometric gap with mean 1/p - 1 compute instructions between memory
    // instructions, so APKI is matched in expectation without lockstep
    // artifacts across warps.
    if (memProb_ >= 1.0)
        return 0;
    // Inverse-CDF sampling of a geometric distribution.
    double u = state.rng.uniform();
    if (u <= 0.0)
        u = 1e-12;
    const double gap = std::log(u) / logOneMinusMemProb_;
    // A rate too small to move 1 - p makes the quotient -inf: a draw
    // beyond any budget saturates rather than leave the conversion's
    // range.
    if (!(gap >= 0.0 && gap < 0x1p64))
        return ~std::uint64_t(0);
    return static_cast<std::uint64_t>(gap);
}

std::uint32_t
KernelGenerator::pickStream(WarpState &state)
{
    const double x = state.rng.uniform() * totalWeight_;
    for (std::size_t s = 0; s < cumulativeWeights_.size(); ++s) {
        if (x < cumulativeWeights_[s])
            return static_cast<std::uint32_t>(s);
    }
    return static_cast<std::uint32_t>(cumulativeWeights_.size() - 1);
}

void
KernelGenerator::decodeMemory(WarpId warp, Addr &pc, AccessType &type,
                              std::vector<Addr> &addrs)
{
    WarpState &state = warps_[warp];
    // Stream s's cursor appends the instruction's transactions.
    auto generate = [&](std::uint32_t s) {
        state.cursors[s].generate(spec_->streams[s], streamBases_[s],
                                  sm_ * warpsPerSm_ + warp,
                                  numSms_ * warpsPerSm_, state.rng, addrs);
    };
    if (state.pendingStream >= 0) {
        // Forced follow-up: the store half of a read-modify-write or the
        // second touch of a shared-reuse pair.
        const auto s = static_cast<std::uint32_t>(state.pendingStream);
        const bool is_write = state.pendingIsWrite;
        state.pendingStream = -1;
        type = is_write ? AccessType::Write : AccessType::Read;
        pc = streamPc(s, is_write);
        generate(s);
        return;
    }
    // Fresh memory instruction: draw the gap to the next one, pick a
    // stream, generate transactions.
    state.instructionsUntilMem = computeGap(state);
    const std::uint32_t s = pickStream(state);
    const StreamSpec &stream = spec_->streams[s];
    const bool is_write = state.rng.chance(stream.writeProb);
    if (stream.kind == PatternKind::PrivateAccum) {
        // Accumulators are explicit load+store pairs when the draw says
        // "update": load now, store next instruction.
        type = AccessType::Read;
        pc = streamPc(s, /*write_half=*/false);
        generate(s);
        if (is_write) {
            state.pendingStream = static_cast<std::int32_t>(s);
            state.pendingIsWrite = true;
        }
        return;
    }
    type = is_write ? AccessType::Write : AccessType::Read;
    pc = streamPc(s, is_write);
    generate(s);
    // Shared structures are touched twice back-to-back.
    if (stream.kind == PatternKind::SharedReuse
        && state.cursors[s].position() % 2 == 1) {
        state.pendingStream = static_cast<std::int32_t>(s);
        state.pendingIsWrite = is_write;
    }
}

std::uint64_t
KernelGenerator::nextMemory(WarpId warp, MemInstruction &out)
{
    WarpState &state = warps_[warp];
    // A follow-up comes next whatever is left of the gap.
    std::uint64_t gap = 0;
    if (state.pendingStream < 0) {
        gap = state.instructionsUntilMem;
        state.instructionsUntilMem = 0;
    }
    out.addrs.clear();
    decodeMemory(warp, out.pc, out.type, out.addrs);
    return gap;
}

void
KernelGenerator::nextBatch(WarpId warp, InstructionBatch &out,
                           std::uint64_t max_instructions)
{
    WarpState &state = warps_[warp];
    out.clear();
    // Decode-ahead clamp: never pre-decode past what the caller can
    // still take. The caller guarantees at least one instruction is
    // wanted.
    const std::uint32_t target = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(InstructionBatch::kCapacity,
                                std::max<std::uint64_t>(max_instructions,
                                                        1)));
    while (out.size < target) {
        InstructionBatch::Decoded &d = out.instr[out.size++];
        d.txBegin = static_cast<std::uint16_t>(out.addrs.size());
        if (state.pendingStream < 0 && state.instructionsUntilMem > 0) {
            // One instruction of the gap, written out as a record.
            --state.instructionsUntilMem;
            d.isMem = false;
            d.type = AccessType::Read;
            d.pc = kComputePc;
        } else {
            d.isMem = true;
            decodeMemory(warp, d.pc, d.type, out.addrs);
        }
        d.txEnd = static_cast<std::uint16_t>(out.addrs.size());
        d.lanes = static_cast<std::uint16_t>(d.txEnd - d.txBegin);
    }
}

} // namespace fuse
