#include "workload/patterns.hh"

#include <algorithm>

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
                           std::uint32_t total_warps, Rng &rng)
{
    const std::uint64_t footprint =
        spec.footprintLines ? spec.footprintLines : 1;
    derivedReady_ = true;
    if (spec.kind == PatternKind::SharedReuse) {
        // One region for every warp, entered at a random pair: the kind's
        // only RNG draw, already below the footprint.
        cursor_ = 2 * rng.below(footprint);
        slice_ = footprint;
        phase_ = cursor_ / 2;
        return;
    }
    // Every other walk starts at position 0 of the warp's own slice.
    std::uint64_t min_slice = 1;
    if (spec.kind == PatternKind::HotWorkingSet)
        min_slice = std::uint64_t(spec.clusterLines) * spec.strideLines * 4;
    else if (spec.kind == PatternKind::Stencil)
        min_slice = 4;
    slice_ = std::max(footprint / total_warps, min_slice);
    sliceBase_ = slice_ * warp;
    strideMod_ = spec.strideLines % slice_;
    if (spec.kind == PatternKind::Stencil)
        phase_ = slice_ - 1;  // (centre + slice - 1) % slice at centre 0.
}

void
PatternCursor::generate(const StreamSpec &spec, Addr base, WarpId warp,
                        std::uint32_t total_warps, Rng &rng,
                        std::vector<Addr> &out)
{
    if (!derivedReady_)
        initDerived(spec, warp, total_warps, rng);

    switch (spec.kind) {
      case PatternKind::Stream: {
        // Private slice walk: warp w owns footprint/total_warps lines and
        // walks them with the configured stride, wrapping at the slice.
        const std::uint64_t line = sliceBase_ + phase_;
        phase_ += strideMod_;
        if (phase_ >= slice_)
            phase_ -= slice_;
        cursor_++;
        out.push_back(base + line * kLineSize);
        break;
      }
      case PatternKind::SharedReuse: {
        // All warps sweep the same shared region, each starting at a
        // random offset (real warps process different elements): the
        // instantaneous footprint is the whole region, so a cache must
        // hold ~footprint lines to convert the sharing into hits.
        // Each warp touches a shared line twice in a row (temporal
        // locality within one element's processing): the second touch is
        // what the request sampler observes as reuse, training the
        // predictor towards WORM; the first touch of each sweep is the
        // capacity-sensitive access.
        const std::uint64_t line = phase_;
        if (cursor_ & 1) {
            // Second touch served: the pair advances to the next line.
            if (++phase_ == slice_)
                phase_ = 0;
        }
        cursor_++;
        out.push_back(base + line * kLineSize);
        break;
      }
      case PatternKind::PrivateAccum: {
        // Read-modify-write over a tiny per-warp region: the same line is
        // loaded then stored (the generator issues the store as the
        // load's follow-up instruction). Walks the private region slowly
        // to touch several accumulator lines.
        const std::uint64_t line = sliceBase_ + phase_;
        if (cursor_ & 1) {
            if (++phase_ == slice_)
                phase_ = 0;
        }
        cursor_++;
        out.push_back(base + line * kLineSize);
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
        auto fresh = [&]() {
            const std::uint64_t line = sliceBase_ + phase_;
            phase_ += strideMod_;
            if (phase_ >= slice_)
                phase_ -= slice_;
            cursor_++;
            return line;
        };
        if (activeLines_.empty()) {
            activeLines_.reserve(spec.clusterLines);
            for (std::uint32_t i = 0; i < spec.clusterLines; ++i)
                activeLines_.push_back(fresh());
        }
        for (std::uint32_t t = 0; t < spec.divergence; ++t) {
            if (rng.chance(spec.churnProb)) {
                // Retire a random active line; admit the next fresh line.
                std::uint64_t victim = rng.below(activeLines_.size());
                activeLines_[victim] = fresh();
            }
            std::uint64_t line;
            if (lastHotLine_ != ~std::uint64_t(0)
                && rng.chance(spec.repeatProb)) {
                // Immediate re-touch across instructions: threads consume
                // consecutive words of the line they used last iteration.
                line = lastHotLine_;
            } else {
                line = activeLines_[rng.below(activeLines_.size())];
            }
            lastHotLine_ = line;
            out.push_back(base + line * kLineSize);
        }
        break;
      }
      case PatternKind::RandomIrregular: {
        // Divergent gather: each transaction lands on a random line in a
        // large footprint; divergence > 1 produces multiple transactions
        // for one warp instruction (uncoalesced SIMT access).
        const std::uint64_t footprint =
            spec.footprintLines ? spec.footprintLines : 1;
        for (std::uint32_t t = 0; t < spec.divergence; ++t)
            out.push_back(base + rng.below(footprint) * kLineSize);
        break;
      }
      case PatternKind::Stencil: {
        // Neighbourhood walk: the centre advances every iteration and the
        // access touches {centre-1, centre, centre+1} in rotation, giving
        // each line ~3 short-distance reuses.
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
        break;
      }
    }
}

} // namespace fuse
