#include "gpu/scheduler.hh"

namespace fuse
{

WarpScheduler::WarpScheduler(std::uint32_t num_warps)
    : numWarps_(num_warps), readyBits_((num_warps + 63) / 64),
      sleepBits_((num_warps + 63) / 64), wakeAt_(num_warps, 0)
{
    // All warps start issue-eligible at cycle 0.
    for (std::uint32_t w = 0; w < num_warps; ++w)
        set(readyBits_, w);
}

void
WarpScheduler::wakeSleepers(Cycle now)
{
    // Out of line so the inlined pick stays small; reached once per wake
    // cycle, not once per woken warp.
    Cycle next = kNever;
    for (std::size_t i = 0; i < sleepBits_.size(); ++i) {
        for (std::uint64_t word = sleepBits_[i]; word; word &= word - 1) {
            const std::uint32_t bit = countTrailingZeros(word);
            const Cycle at = wakeAt_[i * 64 + bit];
            if (at <= now) {
                sleepBits_[i] &= ~(std::uint64_t(1) << bit);
                readyBits_[i] |= std::uint64_t(1) << bit;
            } else {
                next = std::min(next, at);
            }
        }
    }
    nextWake_ = next;
}

} // namespace fuse
