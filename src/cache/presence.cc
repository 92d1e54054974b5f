#include "cache/presence.hh"

#include <algorithm>

namespace fuse
{

PresenceSummary::PresenceSummary(std::uint32_t max_members,
                                 std::uint32_t num_slots,
                                 std::uint32_t num_hashes)
    : maxMembers_(max_members), numHashes_(num_hashes)
{
    if (max_members == 0 || num_hashes == 0)
        fuse_fatal("PresenceSummary needs nonzero members (%u) and "
                   "hashes (%u)",
                   max_members, num_hashes);
    // Exact counting is safe iff the worst case — every live member's
    // every hash landing in one slot — still fits the u16 counter.
    if (std::uint64_t(max_members) * num_hashes > kCounterMax)
        fuse_fatal("PresenceSummary bound %u members x %u hashes exceeds "
                   "the u16 counter (%u)",
                   max_members, num_hashes, unsigned(kCounterMax));

    if (num_slots == 0) {
        // Auto-size: 16 slots per member keeps a full structure's expected
        // false-positive rate around 1 - (1 - 1/16)^1 ~ 6% per hash.
        std::uint64_t want =
            std::uint64_t(16) * std::max<std::uint32_t>(max_members, 16);
        num_slots = 256;
        while (num_slots < want && num_slots < (1u << 20))
            num_slots <<= 1;
    }
    if (num_slots & (num_slots - 1))
        fuse_fatal("PresenceSummary slot count %u must be a power of two",
                   num_slots);
    numSlots_ = num_slots;
    slotMask_ = num_slots - 1;
    counters_.assign(numSlots_, 0);
}

} // namespace fuse
