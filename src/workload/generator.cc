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
/** Benchmarks get distinct PC pages so predictor state can't alias. */
constexpr Addr kPcBase = 0x1000;
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
        state.queues.resize(spec.streams.size());
        state.instructionsUntilMem = computeGap(state);
    }
}

Addr
KernelGenerator::streamPc(std::uint32_t stream_index, bool write_half) const
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
    auto gap = static_cast<std::uint64_t>(
        std::log(u) / logOneMinusMemProb_);
    return gap;
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

std::uint64_t
KernelGenerator::appendTransactions(WarpState &state, WarpId warp,
                                    std::uint32_t s, std::vector<Addr> &out,
                                    std::uint64_t remaining)
{
    const StreamSpec &stream = spec_->streams[s];
    const WarpId global_warp = sm_ * warpsPerSm_ + warp;
    const std::uint32_t total_warps = numSms_ * warpsPerSm_;

    if (!rngFreeKind(stream.kind)) {
        // RNG-consuming cursor: its draws interleave with the decode
        // loop's gap/pick/write draws on the warp's one RNG, so it must
        // generate exactly at its instruction's decode point — no
        // prefetch.
        state.cursors[s].generateBatch(stream, streamBases_[s], global_warp,
                                       total_warps, state.rng, 1, out);
        return state.cursors[s].position();
    }

    StreamQueue &q = state.queues[s];
    if (q.head == q.lines.size()) {
        // Refill: one amortised cursor call per up-to-kPrefetch
        // instructions, clamped to the instructions the SM can still
        // decode — every queue entry costs a consumed instruction, so
        // prefetching past the remaining budget would generate
        // addresses nobody can ever pop (PR 7's bounded run-end
        // over-generation). Only SharedReuse's first-ever refill draws
        // RNG (its start offset), and that refill is triggered by the
        // stream's first decoded instruction — its decode point.
        const auto count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kPrefetch, std::max<std::uint64_t>(
                                                   remaining, 1)));
        q.lines.clear();
        q.head = 0;
        q.basePos = state.cursors[s].position();
        state.cursors[s].generateBatch(stream, streamBases_[s], global_warp,
                                       total_warps, state.rng, count,
                                       q.lines);
    }
    out.push_back(q.lines[q.head++]);
    // RNG-free generate-equivalents advance the cursor by one each, so
    // the cursor position after the consumed entry is basePos + head.
    return q.basePos + q.head;
}

void
KernelGenerator::nextBatch(WarpId warp, InstructionBatch &out,
                           std::uint64_t max_instructions)
{
    WarpState &state = warps_[warp];
    out.clear();
    // Decode-ahead clamp: never pre-decode past what the SM can still
    // issue. The caller guarantees at least one instruction is wanted.
    const std::uint32_t target = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(InstructionBatch::kCapacity,
                                std::max<std::uint64_t>(max_instructions,
                                                        1)));
    while (out.size < target) {
        // Instructions still to decode, the current slot included.
        const std::uint64_t remaining = max_instructions - out.size;
        InstructionBatch::Decoded &d = out.instr[out.size];
        d.isMem = false;
        d.type = AccessType::Read;
        d.pc = 0;
        d.txBegin = static_cast<std::uint16_t>(out.addrs.size());

        if (state.pendingStream >= 0) {
            // Forced follow-up: the store half of a read-modify-write or
            // the second touch of a shared-reuse pair.
            const auto s = static_cast<std::uint32_t>(state.pendingStream);
            const bool is_write = state.pendingIsWrite;
            state.pendingStream = -1;
            d.isMem = true;
            d.type = is_write ? AccessType::Write : AccessType::Read;
            d.pc = streamPc(s, is_write);
            appendTransactions(state, warp, s, out.addrs, remaining);
        } else if (state.instructionsUntilMem > 0) {
            --state.instructionsUntilMem;
            d.pc = kPcBase - 4;  // generic compute PC
        } else {
            // Memory instruction: pick a stream, generate transactions.
            state.instructionsUntilMem = computeGap(state);
            const std::uint32_t s = pickStream(state);
            const StreamSpec &stream = spec_->streams[s];
            d.isMem = true;
            const bool is_write = state.rng.chance(stream.writeProb);
            if (stream.kind == PatternKind::PrivateAccum) {
                // Accumulators are explicit load+store pairs when the
                // draw says "update": load now, store next instruction.
                d.type = AccessType::Read;
                d.pc = streamPc(s, /*write_half=*/false);
                appendTransactions(state, warp, s, out.addrs, remaining);
                if (is_write) {
                    state.pendingStream = static_cast<std::int32_t>(s);
                    state.pendingIsWrite = true;
                }
            } else {
                d.type = is_write ? AccessType::Write : AccessType::Read;
                d.pc = streamPc(s, is_write);
                const std::uint64_t pos =
                    appendTransactions(state, warp, s, out.addrs,
                                       remaining);
                // Shared structures are touched twice back-to-back: the
                // queue-tracked position supplies the pair parity (the
                // cursor itself may already be prefetched ahead).
                if (stream.kind == PatternKind::SharedReuse
                    && pos % 2 == 1) {
                    state.pendingStream = static_cast<std::int32_t>(s);
                    state.pendingIsWrite = is_write;
                }
            }
        }
        d.txEnd = static_cast<std::uint16_t>(out.addrs.size());
        d.lanes = static_cast<std::uint16_t>(d.txEnd - d.txBegin);
        ++out.size;
    }
    // workload/instructions is counted where instructions are consumed
    // (the SM's batch pop), not here: counting decoded-ahead
    // instructions over-reported the run-end tail.
}

} // namespace fuse
