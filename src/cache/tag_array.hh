/**
 * @file
 * A set-associative tag array: the lookup/insert/evict core reused by the
 * SRAM L1D bank, the STT-MRAM bank, and the shared L2 cache.
 *
 * No operation walks CacheLine records on the hot path any more:
 * residency is answered by a compact per-set tag map (8-byte tags, so a
 * whole narrow set fits one cache line) or the flat-map index (wide/FA
 * arrays), free ways come from a per-set occupancy bitmap
 * (lowest-index-first, like the historical invalid-way scan), and the
 * victim comes from the event-driven replacement engine in O(1).
 */

#ifndef FUSE_CACHE_TAG_ARRAY_HH
#define FUSE_CACHE_TAG_ARRAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/line.hh"
#include "cache/replacement.hh"
#include "common/flat_map.hh"
#include "common/types.hh"

namespace fuse
{

/** Result of a fill: the victim line's metadata, if a valid line was evicted. */
struct Eviction
{
    CacheLine line;   ///< Copy of the evicted line's metadata.
};

/**
 * Set-associative tag array with LRU or FIFO replacement. A
 * fully-associative array is simply numSets == 1.
 */
class TagArray
{
  public:
    /** Way value meaning "not resident" (in Probe and internally). */
    static constexpr std::uint32_t kWayNone = ~std::uint32_t(0);

    /**
     * One resolved residency lookup: the set index, the way the line
     * occupies (kWayNone on a miss), and — on a hit — the flat slot of
     * the line/packed-tag records (set * numWays + way, precomputed so
     * consumers index storage without re-multiplying).
     *
     * A Probe is a snapshot: it stays valid until the next mutation of
     * the array (fill/invalidate/clear). The single-lookup access
     * pipeline resolves a request's residency once with lookup() and
     * threads the Probe by value through hit/miss/fill — the separate
     * probe/peek/fill lookups this replaced each re-ran the tag search.
     */
    struct Probe
    {
        std::uint32_t set = 0;
        std::uint32_t way = kWayNone;
        std::uint32_t slot = 0;   ///< Valid only when hit().
        bool hit() const { return way != kWayNone; }
    };

    /**
     * @param num_sets  Number of sets (1 = fully associative).
     * @param num_ways  Associativity.
     * @param policy    Replacement policy.
     */
    TagArray(std::uint32_t num_sets, std::uint32_t num_ways,
             ReplPolicy policy);

    /** Resolve @p line_addr's residency in one tag search (no state
     *  change): the only operation that consults the tag map / index. */
    Probe lookup(Addr line_addr) const;

    /** Commit a hit: touch the line and run replacement bookkeeping.
     *  Pre-condition: @p p.hit() and @p p is current. */
    CacheLine *hitLine(const Probe &p, Cycle now);

    /** Line behind a resolved probe (nullptr on a miss probe). */
    const CacheLine *lineAt(const Probe &p) const
    {
        return p.hit() ? &lines_[p.slot] : nullptr;
    }
    CacheLine *lineAt(const Probe &p)
    {
        return p.hit() ? &lines_[p.slot] : nullptr;
    }

    /**
     * Insert @p line_addr using the already-resolved @p p (which must be
     * lookup(line_addr) against the current array state), evicting if
     * the set is full. A hit probe degenerates to a recency touch.
     * @return metadata of the evicted valid line, if any.
     */
    std::optional<Eviction> fillAt(const Probe &p, Addr line_addr,
                                   Cycle now, CacheLine **filled = nullptr);

    /** Invalidate the line behind a resolved probe (no-op on a miss
     *  probe); returns the removed line. */
    std::optional<CacheLine> invalidateAt(const Probe &p);

    /** Look up @p line_addr; touch on hit. Returns the line or nullptr.
     *  (lookup + hitLine in one call, for callers without a Probe.) */
    CacheLine *probe(Addr line_addr, Cycle now);

    /** Look up without updating replacement state (for peeking). */
    const CacheLine *peek(Addr line_addr) const
    {
        return lineAt(lookup(line_addr));
    }

    /**
     * Insert @p line_addr, evicting if the set is full.
     * @return metadata of the evicted valid line, if any.
     */
    std::optional<Eviction> fill(Addr line_addr, Cycle now,
                                 CacheLine **filled = nullptr)
    {
        return fillAt(lookup(line_addr), line_addr, now, filled);
    }

    /** Invalidate @p line_addr if present; returns the removed line. */
    std::optional<CacheLine> invalidate(Addr line_addr)
    {
        return invalidateAt(lookup(line_addr));
    }

    /** Number of valid lines currently resident. */
    std::uint32_t occupancy() const { return occupied_; }

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t numWays() const { return numWays_; }
    std::uint32_t numLines() const { return numSets_ * numWays_; }

    /** Set index for @p line_addr (exposed for the approximation logic). */
    std::uint32_t setIndex(Addr line_addr) const
    {
        // Sets are almost always a power of two; the mask dodges the
        // integer division on the per-access hot path.
        if (setMask_ != kNoMask)
            return static_cast<std::uint32_t>(line_addr & setMask_);
        return static_cast<std::uint32_t>(line_addr % numSets_);
    }

    /** Visit every valid line (tests and the offline classifier). */
    void forEachValid(const std::function<void(const CacheLine &)> &fn) const;

    /** Drop every line (kernel boundary / test reset). */
    void clear();

  private:
    static constexpr Addr kNoMask = ~Addr(0);
    /** Way of @p line_addr in its set, or kWayNone. */
    std::uint32_t wayOf(Addr line_addr, std::uint32_t set) const;
    /** Ways above which lookups go through the residency index instead
     *  of the per-set tag-map scan (the approximated fully-associative
     *  STT bank has hundreds of ways; a narrow set's tag map is at most
     *  a cache line and scans faster than a hash probe). */
    static constexpr std::uint32_t kIndexedWaysThreshold = 8;
    /** tagMap_ slot value of an invalid way. Line addresses are physical
     *  addresses divided down to line granularity and never reach 2^64-1. */
    static constexpr Addr kEmptyTag = ~Addr(0);

    /** Lowest free way of @p set (pre-condition: freeCount_[set] > 0). */
    std::uint32_t lowestFreeWay(std::uint32_t set) const;
    void markOccupied(std::uint32_t set, std::uint32_t way);
    void markFree(std::uint32_t set, std::uint32_t way);

    std::uint32_t numSets_;
    std::uint32_t numWays_;
    Addr setMask_ = kNoMask;   ///< numSets_-1 when numSets_ is a power of 2.
    /** All lines, set-major: the ways of set s start at s * numWays_. */
    std::vector<CacheLine> lines_;
    AgeListPolicy repl_;

    /** Free-way bitmap, wordsPerSet_ 64-bit words per set. Bit w of the
     *  set's words is 1 iff way w is invalid; the lowest set bit is the
     *  fill target, preserving the historical lowest-index-first
     *  invalid-way preference without scanning CacheLines. */
    std::vector<std::uint64_t> freeBits_;
    std::vector<std::uint32_t> freeCount_;  ///< Free ways per set.
    std::uint32_t wordsPerSet_;
    std::uint32_t occupied_ = 0;            ///< Valid lines in total.

    /** Per-set way map: tagMap_[set * numWays_ + w] mirrors way w's tag
     *  (kEmptyTag when invalid), so narrow-geometry lookups compare
     *  densely packed 8-byte tags instead of striding across CacheLine
     *  records — the narrow-bank linear probes that used to show up in
     *  the profile. Maintained for every geometry (stores are cheap);
     *  wide arrays answer lookups from index_ instead. */
    std::vector<Addr> tagMap_;

    /** line address -> way residency index; maintained by fill/invalidate/
     *  clear, only for wide arrays (see kIndexedWaysThreshold). */
    std::unique_ptr<FlatAddrMap<std::uint32_t>> index_;
};

} // namespace fuse

#endif // FUSE_CACHE_TAG_ARRAY_HH
