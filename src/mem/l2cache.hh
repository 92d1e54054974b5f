/**
 * @file
 * Shared, banked L2 cache. Each bank is a write-back, write-allocate
 * CacheBank with an access-latency model that includes the ECC-protected
 * array access the paper attributes L2's long latency to (§II-A2). Banks
 * are shared by all SMs; bank conflicts serialise.
 */

#ifndef FUSE_MEM_L2CACHE_HH
#define FUSE_MEM_L2CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_bank.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fuse
{

/** L2 geometry/timing parameters. */
struct L2Config
{
    std::uint32_t numBanks = 12;        ///< Table I topology: 12 L2 banks.
    std::uint32_t totalSizeBytes = 786 * 1024;  ///< Table I: 786KB.
    std::uint32_t numWays = 8;
    /** Array access latency per bank (the paper's Table I lists 1 cycle for
     *  the array itself; the 60x L1D figure comes from the NoC round trip,
     *  ECC pipeline, and queueing, modelled here and in Interconnect). */
    std::uint32_t accessLatency = 24;
    /** Bank occupancy per access (throughput limit). */
    std::uint32_t cyclePerAccess = 2;
};

/** Result of an L2 access. A miss is forwarded to DRAM by the caller. */
struct L2Result
{
    bool hit = false;
    Cycle doneAt = 0;       ///< When the bank produced (or accepted) data.
    /** Dirty eviction that must be written back to DRAM. */
    std::optional<Addr> writeback;
};

/** Banked shared L2. Line addresses interleave across banks. */
class L2Cache
{
  public:
    explicit L2Cache(const L2Config &config);

    std::uint32_t bankOf(Addr line_addr) const;

    /**
     * Access @p line_addr at @p now (arrival at the bank). The access
     * starts when the bank's demand port frees, and the line's
     * replacement age is stamped at that start. Fills on miss (the
     * caller charges DRAM latency separately and in parallel — standard
     * approximation for a non-blocking L2).
     */
    L2Result access(Addr line_addr, AccessType type, Cycle now);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    const L2Config &config() const { return config_; }

    /** Aggregate per-bank stats into stats(). */
    void finalizeStats();

  private:
    L2Config config_;
    /** Banks held by value with capacity reserved before construction:
     *  the banks never move afterwards (CacheBank caches StatGroup
     *  handles), and construction performs no vector reallocation. */
    std::vector<CacheBank> banks_;
    StatGroup stats_;
    // Hot-path counters cached out of the string-keyed map.
    StatGroup::Scalar *statHits_;
    StatGroup::Scalar *statMisses_;
};

} // namespace fuse

#endif // FUSE_MEM_L2CACHE_HH
