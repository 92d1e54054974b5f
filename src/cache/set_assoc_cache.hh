/**
 * @file
 * A set-associative write-back cache built on TagArray: one combined
 * access-or-fill call plus hit/miss/eviction statistics. Each bank of the
 * shared L2 cache is one; the L1D organisations build on CacheBank
 * instead.
 */

#ifndef FUSE_CACHE_SET_ASSOC_CACHE_HH
#define FUSE_CACHE_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <optional>

#include "cache/tag_array.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fuse
{

/** Geometry + policy bundle for a SetAssocCache. */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 0;
    std::uint32_t numSets = 0;
    std::uint32_t numWays = 0;
    ReplPolicy policy = ReplPolicy::LRU;

    /** Derive sets from size/ways (line size fixed at kLineSize). */
    static CacheGeometry
    fromSize(std::uint32_t size_bytes, std::uint32_t ways,
             ReplPolicy policy = ReplPolicy::LRU)
    {
        CacheGeometry g;
        g.sizeBytes = size_bytes;
        g.numWays = ways;
        g.numSets = size_bytes / kLineSize / ways;
        if (g.numSets == 0)
            g.numSets = 1;
        g.policy = policy;
        return g;
    }
};

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Dirty line pushed out by the fill (needs a write-back). */
    std::optional<Eviction> eviction;
};

/**
 * Write-back, write-allocate set-associative cache (timing metadata only).
 * The caller owns miss handling (MSHR, next memory level); this class is
 * the tag pipeline + statistics.
 */
class SetAssocCache
{
  public:
    SetAssocCache(const CacheGeometry &geometry, std::string stat_prefix);

    /** Access @p line_addr and, on a miss, fill it at once (an atomic
     *  access+fill model). One residency lookup serves both halves (the
     *  access pipeline's single-probe contract — the old access-then-fill
     *  pair re-ran the tag search on every miss). */
    CacheAccessResult accessAndFill(Addr line_addr, AccessType type,
                                    Cycle now);

    const StatGroup &stats() const { return stats_; }

  private:
    /** The hit half: on a hit, update read/write/dirty bookkeeping. */
    bool accessAt(const TagArray::Probe &p, AccessType type, Cycle now);

    /** The miss half: allocate @p line_addr; marks dirty if the
     *  triggering access wrote. */
    CacheAccessResult fillAt(const TagArray::Probe &p, Addr line_addr,
                             AccessType type, Cycle now);

    TagArray tags_;
    StatGroup stats_;
    // Hot-path counters cached out of the string-keyed map.
    StatGroup::Scalar *statHits_;
    StatGroup::Scalar *statWriteHits_;
    StatGroup::Scalar *statReadHits_;
    StatGroup::Scalar *statMisses_;
    StatGroup::Scalar *statWriteMisses_;
    StatGroup::Scalar *statReadMisses_;
    StatGroup::Scalar *statFills_;
    StatGroup::Scalar *statDirtyEvictions_;
    StatGroup::Scalar *statCleanEvictions_;
};

} // namespace fuse

#endif // FUSE_CACHE_SET_ASSOC_CACHE_HH
