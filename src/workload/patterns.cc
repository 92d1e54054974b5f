#include "workload/patterns.hh"

namespace fuse
{

const char *
toString(PatternKind kind)
{
    switch (kind) {
      case PatternKind::Stream: return "stream";
      case PatternKind::SharedReuse: return "shared-reuse";
      case PatternKind::PrivateAccum: return "private-accum";
      case PatternKind::RandomIrregular: return "random-irregular";
      case PatternKind::HotWorkingSet: return "hot-working-set";
      case PatternKind::Stencil: return "stencil";
    }
    return "?";
}

void
PatternCursor::initDerived(const StreamSpec &spec, WarpId warp,
                           std::uint32_t total_warps)
{
    const std::uint64_t footprint =
        spec.footprintLines ? spec.footprintLines : 1;

    switch (spec.kind) {
      case PatternKind::Stream: {
        std::uint64_t slice = footprint / total_warps;
        if (slice == 0)
            slice = 1;
        slice_ = slice;
        sliceBase_ = slice * warp;
        strideMod_ = spec.strideLines % slice;
        phase_ = (cursor_ * spec.strideLines) % slice;
        break;
      }
      case PatternKind::SharedReuse:
        // cursor_ was just seeded to 2 * rng.below(footprint), so the
        // walk's phase starts below the footprint with no reduction.
        slice_ = footprint;
        sliceBase_ = 0;
        phase_ = cursor_ / 2;
        break;
      case PatternKind::PrivateAccum: {
        std::uint64_t slice = footprint / total_warps;
        if (slice == 0)
            slice = 1;
        slice_ = slice;
        sliceBase_ = slice * warp;
        phase_ = (cursor_ / 2) % slice;
        break;
      }
      case PatternKind::HotWorkingSet: {
        std::uint64_t slice = footprint / total_warps;
        const std::uint64_t need =
            std::uint64_t(spec.clusterLines) * spec.strideLines * 4;
        if (slice < need)
            slice = need;
        slice_ = slice;
        sliceBase_ = slice * warp;
        strideMod_ = spec.strideLines % slice;
        phase_ = (cursor_ * spec.strideLines) % slice;
        break;
      }
      case PatternKind::Stencil: {
        std::uint64_t slice = footprint / total_warps;
        if (slice < 4)
            slice = 4;
        slice_ = slice;
        sliceBase_ = slice * warp;
        // phase_ tracks (centre + slice - 1) % slice, step3_ the
        // neighbour rotation.
        phase_ = (cursor_ / 3 + slice - 1) % slice;
        step3_ = static_cast<std::uint32_t>(cursor_ % 3);
        break;
      }
      case PatternKind::RandomIrregular:
        break;   // Pure RNG: nothing to pre-reduce.
    }
    derivedReady_ = true;
}

void
PatternCursor::generateBatch(const StreamSpec &spec, Addr base, WarpId warp,
                             std::uint32_t total_warps, Rng &rng,
                             std::uint32_t instructions,
                             std::vector<Addr> &out)
{
    const std::uint64_t footprint =
        spec.footprintLines ? spec.footprintLines : 1;

    switch (spec.kind) {
      case PatternKind::Stream: {
        // Private slice walk: warp w owns footprint/total_warps lines and
        // walks them with the configured stride, wrapping at the slice.
        if (!derivedReady_)
            initDerived(spec, warp, total_warps);
        for (std::uint32_t n = 0; n < instructions; ++n) {
            const std::uint64_t line = sliceBase_ + phase_;
            phase_ += strideMod_;
            if (phase_ >= slice_)
                phase_ -= slice_;
            out.push_back(base + line * kLineSize);
        }
        cursor_ += instructions;
        break;
      }
      case PatternKind::SharedReuse: {
        // All warps sweep the same shared region, each starting at a
        // random offset (real warps process different elements): the
        // instantaneous footprint is the whole region, so a cache must
        // hold ~footprint lines to convert the sharing into hits. The
        // start offset is this kind's only RNG draw, so only the batch
        // serving the first-ever call touches the warp's generator.
        if (!initialized_) {
            cursor_ = 2 * rng.below(footprint);
            initialized_ = true;
        }
        if (!derivedReady_)
            initDerived(spec, warp, total_warps);
        // Each warp touches a shared line twice in a row (temporal
        // locality within one element's processing): the second touch is
        // what the request sampler observes as reuse, training the
        // predictor towards WORM; the first touch of each sweep is the
        // capacity-sensitive access.
        for (std::uint32_t n = 0; n < instructions; ++n) {
            const std::uint64_t line = phase_;
            if (cursor_ & 1) {
                // Second touch served: the pair advances to the next line.
                if (++phase_ == slice_)
                    phase_ = 0;
            }
            cursor_++;
            out.push_back(base + line * kLineSize);
        }
        break;
      }
      case PatternKind::PrivateAccum: {
        // Read-modify-write over a tiny per-warp region: the same line is
        // loaded then stored (the generator issues the store as the
        // load's follow-up instruction). Walks the private region slowly
        // to touch several accumulator lines.
        if (!derivedReady_)
            initDerived(spec, warp, total_warps);
        for (std::uint32_t n = 0; n < instructions; ++n) {
            const std::uint64_t line = sliceBase_ + phase_;
            if (cursor_ & 1) {
                if (++phase_ == slice_)
                    phase_ = 0;
            }
            cursor_++;
            out.push_back(base + line * kLineSize);
        }
        break;
      }
      case PatternKind::HotWorkingSet: {
        // Per-warp cluster of active lines inside a per-warp slice of the
        // region. Accesses hit the cluster (short reuse distance — the
        // request sampler can observe it); churn slowly walks the cluster
        // through the slice, bounding each line's total reuse.
        // Fresh lines are admitted at strideLines spacing: transposed
        // matrix walks stride by the (power-of-two) row length, so hot
        // lines pile onto a handful of cache sets — the conflict-miss
        // storm that a set-associative L1D suffers and the approximated
        // fully-associative STT-MRAM bank eliminates.
        // Draws from @p rng per transaction: callers may only batch
        // decode-consecutive instructions of this stream (see header).
        if (!derivedReady_)
            initDerived(spec, warp, total_warps);
        auto fresh = [&]() {
            const std::uint64_t line = sliceBase_ + phase_;
            phase_ += strideMod_;
            if (phase_ >= slice_)
                phase_ -= slice_;
            cursor_++;
            return line;
        };
        for (std::uint32_t n = 0; n < instructions; ++n) {
            if (activeLines_.empty()) {
                activeLines_.reserve(spec.clusterLines);
                for (std::uint32_t i = 0; i < spec.clusterLines; ++i)
                    activeLines_.push_back(fresh());
            }
            for (std::uint32_t t = 0; t < spec.divergence; ++t) {
                if (rng.chance(spec.churnProb)) {
                    // Retire a random active line; admit the next fresh
                    // line.
                    std::uint64_t victim = rng.below(activeLines_.size());
                    activeLines_[victim] = fresh();
                }
                std::uint64_t line;
                if (lastHotLine_ != ~std::uint64_t(0)
                    && rng.chance(spec.repeatProb)) {
                    // Immediate re-touch across instructions: threads
                    // consume consecutive words of the line they used
                    // last iteration.
                    line = lastHotLine_;
                } else {
                    line = activeLines_[rng.below(activeLines_.size())];
                }
                lastHotLine_ = line;
                out.push_back(base + line * kLineSize);
            }
        }
        break;
      }
      case PatternKind::RandomIrregular: {
        // Divergent gather: each transaction lands on a random line in a
        // large footprint; divergence > 1 produces multiple transactions
        // for one warp instruction (uncoalesced SIMT access). One draw
        // per transaction: same batching restriction as HotWorkingSet.
        for (std::uint32_t n = 0; n < instructions; ++n) {
            for (std::uint32_t t = 0; t < spec.divergence; ++t)
                out.push_back(base + rng.below(footprint) * kLineSize);
        }
        break;
      }
      case PatternKind::Stencil: {
        // Neighbourhood walk: the centre advances every iteration and the
        // access touches {centre-1, centre, centre+1} in rotation, giving
        // each line ~3 short-distance reuses.
        if (!derivedReady_)
            initDerived(spec, warp, total_warps);
        for (std::uint32_t n = 0; n < instructions; ++n) {
            std::uint64_t line = phase_ + step3_;
            if (line >= slice_)
                line -= slice_;
            line += sliceBase_;
            if (++step3_ == 3) {
                step3_ = 0;
                if (++phase_ == slice_)
                    phase_ = 0;
            }
            cursor_++;
            out.push_back(base + line * kLineSize);
        }
        break;
      }
    }
}

} // namespace fuse
