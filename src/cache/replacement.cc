#include "cache/replacement.hh"

#include <algorithm>

namespace fuse
{

AgeListPolicy::AgeListPolicy(ReplPolicy policy, std::uint32_t num_sets,
                             std::uint32_t num_ways)
    : reageOnHit_(policy == ReplPolicy::LRU),
      numWays_(num_ways),
      head_(num_sets, kNone),
      tail_(num_sets, kNone),
      next_(std::size_t(num_sets) * num_ways, kNone),
      prev_(std::size_t(num_sets) * num_ways, kNone),
      stamp_(std::size_t(num_sets) * num_ways, 0),
      linked_(std::size_t(num_sets) * num_ways, 0)
{
}

void
AgeListPolicy::unlink(std::uint32_t set, std::uint32_t way)
{
    const std::size_t s = slot(set, way);
    const std::uint32_t p = prev_[s];
    const std::uint32_t n = next_[s];
    if (p != kNone)
        next_[slot(set, p)] = n;
    else
        head_[set] = n;
    if (n != kNone)
        prev_[slot(set, n)] = p;
    else
        tail_[set] = p;
    linked_[s] = 0;
}

void
AgeListPolicy::promote(std::uint32_t set, std::uint32_t way, Cycle stamp)
{
    const std::size_t s = slot(set, way);
    if (linked_[s])
        unlink(set, way);
    stamp_[s] = stamp;
    linked_[s] = 1;

    // Insert in ascending (stamp, way) order. Time is monotonic, so the
    // spot is the tail except when other ways of this set were stamped in
    // the same cycle — then the lowest-index-wins-ties order of the
    // historical scan demands walking past the same-stamp ways with a
    // larger index.
    std::uint32_t after = tail_[set];
    while (after != kNone) {
        const std::size_t a = slot(set, after);
        if (stamp_[a] < stamp
            || (stamp_[a] == stamp && after < way))
            break;
        after = prev_[a];
    }

    if (after == kNone) {
        // New head (oldest position).
        const std::uint32_t old_head = head_[set];
        prev_[s] = kNone;
        next_[s] = old_head;
        if (old_head != kNone)
            prev_[slot(set, old_head)] = way;
        else
            tail_[set] = way;
        head_[set] = way;
        return;
    }
    const std::size_t a = slot(set, after);
    const std::uint32_t n = next_[a];
    prev_[s] = after;
    next_[s] = n;
    next_[a] = way;
    if (n != kNone)
        prev_[slot(set, n)] = way;
    else
        tail_[set] = way;
}

void
AgeListPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    if (linked_[slot(set, way)])
        unlink(set, way);
}

std::uint32_t
AgeListPolicy::victim(std::uint32_t set) const
{
    const std::uint32_t v = head_[set];
    // The owner only asks once every way is filled; an empty list would
    // mean a protocol violation, so fall back to way 0 like the old
    // scan's neutral starting point rather than indexing out of bounds.
    return v == kNone ? 0 : v;
}

void
AgeListPolicy::reset()
{
    std::fill(head_.begin(), head_.end(), kNone);
    std::fill(tail_.begin(), tail_.end(), kNone);
    std::fill(linked_.begin(), linked_.end(), 0);
}

} // namespace fuse
