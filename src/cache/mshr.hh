/**
 * @file
 * Miss Status Holding Registers: one entry per line with an off-chip
 * fill in flight, which a secondary miss to the same line joins (the
 * L1D base class owns that protocol, fuse/l1d.hh).
 *
 * The entry file is one array reserved to the configured capacity,
 * behind an exact presence summary (cache/presence.hh) that answers most
 * absence-proving probes without touching it. A lookup the summary lets
 * through and a retirement each scan the array: at most the 32 entries
 * every preset runs (GPGPU-Sim's default). A spec at the 65,535-entry
 * bound stays correct but retires more slowly. minReadyAt() stays the
 * exact minimum over in-flight entries (it is timing-observable — Full
 * stalls schedule their retry from it).
 */

#ifndef FUSE_CACHE_MSHR_HH
#define FUSE_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "cache/presence.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fuse
{

/** One in-flight miss. */
struct MshrEntry
{
    Addr lineAddr = 0;
    Cycle readyAt = 0;          ///< When the fill data arrives at the L1D.
};

/**
 * Fixed-capacity MSHR file keyed by line address. Entries are freed
 * lazily: retireReady() drops every entry whose fill has arrived.
 *
 * Entry pointers returned by allocate()/find() are valid only until the
 * next retireReady(), which moves entries into the gaps it leaves. The
 * array never reallocates: allocate() appends below the reserved
 * capacity.
 */
class Mshr
{
  public:
    /** @param num_entries capacity (paper/GPGPU-Sim default: 32).
     *  @param stats       the owner's group; counts "mshr_allocated". */
    Mshr(std::uint32_t num_entries, StatGroup &stats);

    /**
     * Allocate a fresh entry for @p line_addr without re-probing the
     * entry file. Pre-conditions the L1D miss path has already
     * established (its in-flight check and Full stall both run before
     * the off-chip request): find(line_addr) == nullptr and !full().
     */
    MshrEntry *allocate(Addr line_addr, Cycle ready_at);

    /**
     * Look up an in-flight entry. The presence summary answers most
     * absence-proving probes without touching the entry file.
     */
    MshrEntry *find(Addr line_addr)
    {
        if (!presence_.mayContain(line_addr))
            return nullptr;
        for (MshrEntry &entry : entries_) {
            if (entry.lineAddr == line_addr)
                return &entry;
        }
        return nullptr;
    }

    /** Free every entry whose readyAt <= now (bulk lazy cleanup).
     *  O(1) when nothing is ready yet (guarded by the exact minimum),
     *  one pass over the entries otherwise. */
    void retireReady(Cycle now)
    {
        if (entries_.empty() || now < minReadyAt_)
            return;
        retireReadySlow(now);
    }

    /** Earliest in-flight fill time — when a Full stall can retry. */
    Cycle minReadyAt() const { return minReadyAt_; }

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }
    std::uint32_t capacity() const { return capacity_; }
    bool full() const { return entries_.size() >= capacity_; }

  private:
    static constexpr Cycle kNever = ~Cycle(0);

    void retireReadySlow(Cycle now);

    std::uint32_t capacity_;
    /** The in-flight entries, unordered; reserved to capacity_. */
    std::vector<MshrEntry> entries_;
    /** Exact membership summary over entries_ (u16 counters: an MSHR
     *  file is tens of entries, far under the exact-mode bound), updated
     *  by allocate() and retireReady() only. */
    PresenceSummary presence_;
    /** Exact minimum readyAt among in-flight entries after a retireReady
     *  pass; lowered eagerly by allocate() in between. */
    Cycle minReadyAt_ = kNever;
    StatGroup::Scalar *statAllocated_;
};

} // namespace fuse

#endif // FUSE_CACHE_MSHR_HH
