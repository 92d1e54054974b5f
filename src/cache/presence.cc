#include "cache/presence.hh"

#include <algorithm>

namespace fuse
{

PresenceSummary::PresenceSummary(std::uint32_t max_members)
    : maxMembers_(max_members)
{
    if (max_members == 0)
        fuse_fatal("PresenceSummary needs nonzero members");
    // Exact counting is safe iff the worst case — every live member
    // landing in one slot — still fits the u16 counter.
    if (max_members > kCounterMax)
        fuse_fatal("PresenceSummary bound %u members exceeds the u16 "
                   "counter (%u)",
                   max_members, unsigned(kCounterMax));

    // 16 slots per member keeps a full structure's expected
    // false-positive rate around 1/16 ~ 6%.
    const std::uint64_t want =
        std::uint64_t(16) * std::max<std::uint32_t>(max_members, 16);
    std::uint32_t num_slots = 256;
    while (num_slots < want && num_slots < (1u << 20))
        num_slots <<= 1;
    slotMask_ = num_slots - 1;
    counters_.assign(num_slots, 0);
}

} // namespace fuse
