/**
 * @file
 * Miss Status Holding Registers: one entry per line with an off-chip
 * fill in flight, which a secondary miss to the same line joins (the
 * L1D base class owns that protocol, fuse/l1d.hh).
 *
 * The entry file is an open-addressing flat table (common/flat_map.hh)
 * sized from the configured capacity — probed on every L1D access, so it
 * must not pay std::unordered_map's node allocations and pointer chases.
 * Retirement is driven by a ready queue (binary min-heap on readyAt):
 * retireReady() pops exactly the elapsed entries instead of sweeping the
 * whole slot array per ready batch, and minReadyAt() stays the exact
 * minimum over in-flight entries (it is timing-observable — Full stalls
 * schedule their retry from it).
 */

#ifndef FUSE_CACHE_MSHR_HH
#define FUSE_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "cache/presence.hh"
#include "common/flat_map.hh"
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
 * next retireReady() — the flat table compacts probe chains on erase.
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
        return entries_.find(line_addr);
    }

    /** Free every entry whose readyAt <= now (bulk lazy cleanup).
     *  O(1) when nothing is ready yet (guarded by a cached minimum),
     *  O(log entries) per entry actually freed. */
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

    /** One allocation's position in the ready queue. Entries leave only
     *  through retireReady(), so every record names a live entry with
     *  the same readyAt. */
    struct ReadyRec
    {
        Cycle readyAt = 0;
        Addr lineAddr = 0;
    };

    /** Min-heap order: the earliest readyAt surfaces at the front. A
     *  functor (not a function pointer) so the heap sifts inline the
     *  comparison instead of making an indirect call per level. */
    struct LaterReady
    {
        bool operator()(const ReadyRec &a, const ReadyRec &b) const
        {
            return a.readyAt > b.readyAt;
        }
    };

    void retireReadySlow(Cycle now);
    void pushReady(Cycle ready_at, Addr line_addr);
    void popReady();

    std::uint32_t capacity_;
    FlatAddrMap<MshrEntry> entries_;
    /** Exact membership summary over entries_ (u16 counters: an MSHR
     *  file is tens of entries, far under the exact-mode bound), updated
     *  by allocate() and retireReady() only. */
    PresenceSummary presence_;
    /** Binary min-heap on readyAt, one record per live allocation. */
    std::vector<ReadyRec> ready_;
    /** Exact minimum readyAt among in-flight entries after a retireReady
     *  sweep; lowered eagerly by allocate() in between. */
    Cycle minReadyAt_ = kNever;
    StatGroup::Scalar *statAllocated_;
};

} // namespace fuse

#endif // FUSE_CACHE_MSHR_HH
