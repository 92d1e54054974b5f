/**
 * @file
 * A timing-aware L1D cache bank: a TagArray plus device occupancy (SRAM
 * banks are always 1-cycle; STT-MRAM banks stay busy for the 5-cycle write
 * penalty) and per-access energy accounting hooks. Both banks of the FUSE
 * hybrid, the pure-SRAM baseline, and the pure-NVM organisation are built
 * from this one class configured with the right device parameters.
 */

#ifndef FUSE_FUSE_CACHE_BANK_HH
#define FUSE_FUSE_CACHE_BANK_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cache/presence.hh"
#include "cache/tag_array.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "prof/prof.hh"

namespace fuse
{

/** Device class of a bank (selects latency/energy behaviour). */
enum class BankTech : std::uint8_t { Sram, SttMram };

/** Bank geometry/timing parameters. */
struct BankConfig
{
    BankTech tech = BankTech::Sram;
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t numSets = 64;
    std::uint32_t numWays = 4;
    ReplPolicy policy = ReplPolicy::LRU;
    std::uint32_t readLatency = 1;
    std::uint32_t writeLatency = 1;   ///< 5 for STT-MRAM (Table I).
    /** Maintain an exact presence summary over the tag array so
     *  definite-miss demand lookups skip the tag search (SRAM banks; the
     *  STT partition already has the NVM-CBF gate in assoc_approx). */
    bool presenceFilter = false;
};

/**
 * One cache bank. The owner (L1D organisation) performs the protocol;
 * the bank provides timed probe/fill/invalidate plus busy-tracking.
 */
class CacheBank
{
  public:
    CacheBank(const BankConfig &config, std::string stat_name);

    /** Which bank port an operation occupies. Demand accesses (and the
     *  blocking writes of non-FUSE organisations) use the demand port;
     *  cache fills and background migrations use the write-driver (fill)
     *  port, which is decoupled in banked SRAM/STT-MRAM arrays — a fill
     *  does not block a concurrent demand read, but sustained fill
     *  bandwidth is still bounded by the MTJ write time. */
    enum class Port : std::uint8_t { Demand, Fill };

    /** True if the bank's demand port is occupied at @p now. */
    bool busy(Cycle now) const { return busyUntil_ > now; }
    Cycle busyUntil() const { return busyUntil_; }

    /** True if the fill (write-driver) port is occupied at @p now. */
    bool fillBusy(Cycle now) const { return fillBusyUntil_ > now; }
    Cycle fillBusyUntil() const { return fillBusyUntil_; }

    /**
     * Resolve residency once (no state change, no occupancy). The
     * returned probe threads through accessAt/fillAt/invalidateAt so one
     * L1D transaction pays exactly one tag search per bank; it stays
     * valid until the next fill/invalidate on this bank.
     *
     * Filtered banks consult the presence summary first: on a definite
     * miss the tag search is skipped and the returned miss probe carries
     * only the set index — exactly what lookup() would have produced
     * (Probe::slot is valid only on a hit), so downstream behaviour and
     * every output stay byte-identical. l1d_bank/demand_resolutions
     * counts only actual tag consults; l1d_sram/filter_skips counts the
     * elided ones.
     */
    TagArray::Probe lookup(Addr line_addr) const
    {
        if (presence_) {
            FUSE_PROF_COUNT(l1d_sram, lookups);
            if (!presence_->mayContain(line_addr)) {
                FUSE_PROF_COUNT(l1d_sram, filter_skips);
                TagArray::Probe miss;
                miss.set = tags_.setIndex(line_addr);
                return miss;
            }
        }
        FUSE_PROF_COUNT(l1d_bank, demand_resolutions);
        return tags_.lookup(line_addr);
    }

    /**
     * Timed access against an already-resolved probe. Occupies the bank
     * for the read (or write) latency on a hit. Returns the line
     * (bookkeeping updated) or nullptr on a miss probe.
     * @param[out] done  completion time of the array access on a hit.
     */
    CacheLine *accessAt(const TagArray::Probe &p, AccessType type,
                        Cycle now, Cycle *done);

    /** Timed probe: lookup + accessAt for callers without a Probe. */
    CacheLine *access(Addr line_addr, AccessType type, Cycle now,
                      Cycle *done)
    {
        return accessAt(lookup(line_addr), type, now, done);
    }

    /** Untimed lookup (tag-only peek; no array occupancy). */
    const CacheLine *peek(Addr line_addr) const
    {
        FUSE_PROF_COUNT(l1d_bank, peek_resolutions);
        return tags_.peek(line_addr);
    }

    /** Line behind a resolved probe, mutable (no occupancy, no LRU
     *  disturbance). */
    CacheLine *peekAt(const TagArray::Probe &p) { return tags_.lineAt(p); }

    /**
     * Timed fill (a write to the array) against an already-resolved
     * probe for @p line_addr. Returns the evicted line if a valid block
     * was displaced.
     * @param port Fill uses the decoupled write-driver port (default);
     *             Demand models organisations whose fills block the array.
     */
    std::optional<Eviction> fillAt(const TagArray::Probe &p, Addr line_addr,
                                   AccessType type, Cycle now, Cycle *done,
                                   CacheLine **filled = nullptr,
                                   Port port = Port::Fill);

    /** Timed fill: lookup + fillAt for callers without a Probe. */
    std::optional<Eviction> fill(Addr line_addr, AccessType type, Cycle now,
                                 Cycle *done, CacheLine **filled = nullptr,
                                 Port port = Port::Fill)
    {
        FUSE_PROF_COUNT(l1d_bank, fill_resolutions);
        return fillAt(tags_.lookup(line_addr), line_addr, type, now, done,
                      filled, port);
    }

    /** Invalidate behind a resolved probe (tag-only operation). */
    std::optional<CacheLine> invalidateAt(const TagArray::Probe &p)
    {
        std::optional<CacheLine> removed = tags_.invalidateAt(p);
        if (presence_ && removed) {
            presence_->remove(removed->tag);
            FUSE_PROF_COUNT(l1d_sram, filter_removes);
        }
        return removed;
    }

    /** Invalidate without array occupancy (tag-only operation). */
    std::optional<CacheLine> invalidate(Addr line_addr)
    {
        FUSE_PROF_COUNT(l1d_bank, invalidate_resolutions);
        return invalidateAt(tags_.lookup(line_addr));
    }

    TagArray &tags() { return tags_; }
    const TagArray &tags() const { return tags_; }
    const BankConfig &config() const { return config_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    std::uint64_t reads() const
    {
        return static_cast<std::uint64_t>(stats_.get("array_reads"));
    }
    std::uint64_t writes() const
    {
        return static_cast<std::uint64_t>(stats_.get("array_writes"));
    }

  private:
    /** Reserve the array starting no earlier than @p now. */
    Cycle occupy(Cycle now, std::uint32_t latency);
    /** Reserve the fill port starting no earlier than @p now. */
    Cycle occupyFill(Cycle now, std::uint32_t latency);

    BankConfig config_;
    TagArray tags_;
    /** Exact residency summary over tags_ (filtered banks only; null
     *  otherwise), maintained by fillAt/invalidateAt — the only paths
     *  that change this bank's membership. */
    std::unique_ptr<PresenceSummary> presence_;
    Cycle busyUntil_ = 0;
    Cycle fillBusyUntil_ = 0;
    StatGroup stats_;
    // Hot-path counters cached out of the string-keyed map.
    StatGroup::Scalar *statReads_;
    StatGroup::Scalar *statWrites_;
    StatGroup::Scalar *statFills_;
    StatGroup::Scalar *statDirtyEvictions_;
    StatGroup::Scalar *statCleanEvictions_;
};

/** Convenience constructors for the two Table I bank flavours. */
BankConfig makeSramBankConfig(std::uint32_t size_bytes, std::uint32_t ways,
                              ReplPolicy policy = ReplPolicy::LRU);
BankConfig makeSttBankConfig(std::uint32_t size_bytes, std::uint32_t ways,
                             bool fully_associative,
                             ReplPolicy policy = ReplPolicy::FIFO);

} // namespace fuse

#endif // FUSE_FUSE_CACHE_BANK_HH
