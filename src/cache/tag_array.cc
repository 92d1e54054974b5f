#include "cache/tag_array.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/log.hh"

namespace fuse
{

TagArray::TagArray(std::uint32_t num_sets, std::uint32_t num_ways,
                   ReplPolicy policy)
    : numSets_(num_sets),
      numWays_(num_ways),
      lines_(std::size_t(num_sets) * num_ways),
      repl_(policy, num_sets, num_ways),
      wordsPerSet_((num_ways + 63) / 64),
      tagMap_(std::size_t(num_sets) * num_ways, kEmptyTag)
{
    if (num_sets == 0 || num_ways == 0)
        fuse_fatal("tag array needs nonzero geometry (%u sets, %u ways)",
                   num_sets, num_ways);
    if ((num_sets & (num_sets - 1)) == 0)
        setMask_ = num_sets - 1;
    if (num_ways > kIndexedWaysThreshold)
        index_ = std::make_unique<FlatAddrMap<std::uint32_t>>(numLines());
    freeBits_.resize(std::size_t(numSets_) * wordsPerSet_);
    freeCount_.resize(numSets_);
    clear();
}

std::uint32_t
TagArray::wayOf(Addr line_addr, std::uint32_t set) const
{
    if (index_) {
        const std::uint32_t *w = index_->find(line_addr);
        return w ? *w : kWayNone;
    }
    const Addr *tags = &tagMap_[std::size_t(set) * numWays_];
    for (std::uint32_t w = 0; w < numWays_; ++w) {
        if (tags[w] == line_addr)
            return w;
    }
    return kWayNone;
}

std::uint32_t
TagArray::lowestFreeWay(std::uint32_t set) const
{
    const std::uint64_t *words = &freeBits_[std::size_t(set) * wordsPerSet_];
    for (std::uint32_t i = 0; i < wordsPerSet_; ++i) {
        if (words[i])
            return i * 64 + countTrailingZeros(words[i]);
    }
    fuse_panic("lowestFreeWay called on a full set");
}

void
TagArray::markOccupied(std::uint32_t set, std::uint32_t way)
{
    freeBits_[std::size_t(set) * wordsPerSet_ + way / 64] &=
        ~(std::uint64_t(1) << (way % 64));
    --freeCount_[set];
    ++occupied_;
}

void
TagArray::markFree(std::uint32_t set, std::uint32_t way)
{
    freeBits_[std::size_t(set) * wordsPerSet_ + way / 64] |=
        std::uint64_t(1) << (way % 64);
    ++freeCount_[set];
    --occupied_;
}

TagArray::Probe
TagArray::lookup(Addr line_addr) const
{
    Probe p;
    p.set = setIndex(line_addr);
    p.way = wayOf(line_addr, p.set);
    if (p.way != kWayNone)
        p.slot = p.set * numWays_ + p.way;
    return p;
}

CacheLine *
TagArray::hitLine(const Probe &p, Cycle now)
{
    repl_.onHit(p.set, p.way, now);
    return &lines_[p.slot];
}

std::optional<Eviction>
TagArray::fillAt(const Probe &p, Addr line_addr, Cycle now,
                 CacheLine **filled)
{
    const std::uint32_t set = p.set;
    CacheLine *ways = &lines_[std::size_t(set) * numWays_];

    // Refill over an existing copy (shouldn't normally happen, but be
    // safe): recency updates, insertion age does not.
    if (p.hit()) {
        repl_.onHit(set, p.way, now);
        if (filled)
            *filled = &ways[p.way];
        return std::nullopt;
    }

    // Prefer a free way (lowest index first, via the occupancy bitmap).
    if (freeCount_[set] > 0) {
        const std::uint32_t w = lowestFreeWay(set);
        markOccupied(set, w);
        ways[w].resetForFill(line_addr);
        repl_.onFill(set, w, now);
        tagMap_[std::size_t(set) * numWays_ + w] = line_addr;
        if (index_)
            *index_->insert(line_addr) = w;
        if (filled)
            *filled = &ways[w];
        return std::nullopt;
    }

    // Evict per policy: O(1) from the engine's per-set state.
    const std::uint32_t victim = repl_.victim(set);
    Eviction ev{ways[victim]};
    tagMap_[std::size_t(set) * numWays_ + victim] = line_addr;
    if (index_) {
        index_->erase(ev.line.tag);
        *index_->insert(line_addr) = victim;
    }
    ways[victim].resetForFill(line_addr);
    repl_.onFill(set, victim, now);
    if (filled)
        *filled = &ways[victim];
    return ev;
}

std::optional<CacheLine>
TagArray::invalidateAt(const Probe &p)
{
    if (!p.hit())
        return std::nullopt;
    CacheLine &line = lines_[p.slot];
    CacheLine copy = line;
    line.valid = false;
    markFree(p.set, p.way);
    repl_.onEvict(p.set, p.way);
    tagMap_[p.slot] = kEmptyTag;
    if (index_)
        index_->erase(copy.tag);
    return copy;
}

void
TagArray::forEachValid(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const auto &line : lines_) {
        if (line.valid)
            fn(line);
    }
}

void
TagArray::clear()
{
    for (auto &line : lines_)
        line = CacheLine{};
    // Every way of every set becomes free; mask off the bits beyond
    // numWays_ in the last word so lowestFreeWay never returns them.
    for (std::uint32_t set = 0; set < numSets_; ++set) {
        std::uint64_t *words = &freeBits_[std::size_t(set) * wordsPerSet_];
        for (std::uint32_t i = 0; i < wordsPerSet_; ++i) {
            const std::uint32_t base = i * 64;
            const std::uint32_t left =
                numWays_ > base ? numWays_ - base : 0;
            words[i] = left >= 64 ? ~std::uint64_t(0)
                                  : (std::uint64_t(1) << left) - 1;
        }
        freeCount_[set] = numWays_;
    }
    std::fill(tagMap_.begin(), tagMap_.end(), kEmptyTag);
    occupied_ = 0;
    repl_.reset();
    if (index_)
        index_->clear();
}

} // namespace fuse
