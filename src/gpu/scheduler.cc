#include "gpu/scheduler.hh"

namespace fuse
{

WarpScheduler::WarpScheduler(std::uint32_t num_warps)
    : numWarps_(num_warps),
      readyBits_((num_warps + 63) / 64), wakeAt_(num_warps, 0)
{
    // All warps start issue-eligible at cycle 0.
    for (std::uint32_t w = 0; w < num_warps; ++w)
        setReady(w);
    while ((1u << warpBits_) < num_warps)
        ++warpBits_;
    heap_.reserve(num_warps);
}

Cycle
WarpScheduler::minPendingWake()
{
    // Only reached when the SM is about to go to sleep — out of line so
    // the inlined pick stays small.
    for (;;) {
        if (heap_.empty())
            break;
        const Wake top = unpack(heap_.front());
        if (wakeAt_[top.warp] == top.at)
            break;
        std::pop_heap(heap_.begin(), heap_.end(),
                      std::greater<std::uint64_t>());
        heap_.pop_back();
    }
    Cycle min_r = heap_.empty() ? kNever : unpack(heap_.front()).at;
    if (stagedValid_ && wakeAt_[staged_.warp] == staged_.at)
        min_r = std::min(min_r, staged_.at);
    return min_r;
}

} // namespace fuse
