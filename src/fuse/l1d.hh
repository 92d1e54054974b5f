/**
 * @file
 * The L1D cache interface every organisation implements (L1-SRAM, FA-SRAM,
 * By-NVM, Hybrid, Base-FUSE, FA-FUSE, Dy-FUSE, Oracle). The SM model talks
 * only to this interface; the factory in l1d_factory.hh builds the concrete
 * organisation from a SimConfig.
 */

#ifndef FUSE_FUSE_L1D_HH
#define FUSE_FUSE_L1D_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/line.hh"
#include "cache/mshr.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "fuse/tag_queue.hh"
#include "mem/hierarchy.hh"
#include "mem/request.hh"

namespace fuse
{

class CacheBank;

/** The seven evaluated L1D organisations plus the Oracle motivation config. */
enum class L1DKind : std::uint8_t
{
    L1Sram,     ///< 4-way set-associative SRAM baseline (GTX480-like).
    FaSram,     ///< Idealised fully-associative SRAM (circuit-infeasible).
    ByNvm,      ///< Pure STT-MRAM with dead-write bypass (DASCA-style).
    PureNvm,    ///< Pure STT-MRAM, no bypass ("STT-MRAM GPU" of Fig. 3).
    Hybrid,     ///< 2-way SRAM + 2-way STT-MRAM, no FUSE plumbing.
    BaseFuse,   ///< Hybrid + swap buffer + tag queue.
    FaFuse,     ///< Base-FUSE + approximated fully-associative STT bank.
    DyFuse,     ///< FA-FUSE + read-level predictor placement.
    Oracle      ///< Infinite, 1-cycle L1D (motivation only).
};

const char *toString(L1DKind kind);

/** Inverse of toString(L1DKind). Returns false if @p name is unknown. */
bool l1dKindFromString(const std::string &name, L1DKind &kind);

/** All nine organisations, in declaration order. */
const std::vector<L1DKind> &allL1DKinds();

/** Outcome of presenting one transaction to the L1D. */
struct L1DResult
{
    enum class Kind : std::uint8_t
    {
        Hit,      ///< Serviced on chip; data ready at readyAt.
        Miss,     ///< Sent off chip (or merged); data ready at readyAt.
        Stall     ///< Structural hazard (MSHR full, bank busy): retry.
    };
    Kind kind = Kind::Stall;
    Cycle readyAt = 0;
};

/**
 * Base class for all L1D organisations. Non-blocking by contract: access()
 * never blocks the caller; a Stall result tells the SM to retry next cycle
 * (and is what the paper counts as an L1D stall).
 *
 * Every organisation but the Oracle owns an MSHR file, and the miss
 * protocol around it (secondary-miss merge, full stall, off-chip issue,
 * dirty write-back) lives here once, as the protected helpers below.
 */
class L1DCache
{
  public:
    /** An organisation without an MSHR file (the Oracle). */
    L1DCache(std::string name, MemoryHierarchy &hierarchy)
        : stats_(std::move(name)), hierarchy_(&hierarchy)
    {
        statHits_ = &stats_.scalar("hits");
        statReadHits_ = &stats_.scalar("read_hits");
        statWriteHits_ = &stats_.scalar("write_hits");
        statMisses_ = &stats_.scalar("misses");
        statReadMisses_ = &stats_.scalar("read_misses");
        statWriteMisses_ = &stats_.scalar("write_misses");
        statBypasses_ = &stats_.scalar("bypasses");
        statReadBypasses_ = &stats_.scalar("read_bypasses");
        statWriteBypasses_ = &stats_.scalar("write_bypasses");
        statMshrSecondary_ = &stats_.scalar("mshr_secondary");
        statStallMshrFull_ = &stats_.scalar("stall_mshr_full");
        statWritebacks_ = &stats_.scalar("writebacks");
    }

    /** An organisation with an MSHR file of @p mshr_entries, in SM
     *  @p sm (whose NoC port its write-backs take). */
    L1DCache(std::string name, MemoryHierarchy &hierarchy,
             std::uint32_t mshr_entries, SmId sm)
        : L1DCache(std::move(name), hierarchy)
    {
        mshr_.emplace(mshr_entries, stats_);
        sm_ = sm;
    }
    virtual ~L1DCache() = default;

    L1DCache(const L1DCache &) = delete;
    L1DCache &operator=(const L1DCache &) = delete;

    /** Present one coalesced transaction at cycle @p now. */
    virtual L1DResult access(const MemRequest &req, Cycle now) = 0;

    /** Per-cycle housekeeping (tag-queue drain etc.). Default: none. */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * True when tick() is guaranteed to be a no-op at every cycle until
     * the next access(): no deferred work is queued. The SM asks before
     * and after each cycle that may touch the memory system, so this is
     * an inline read, not a virtual call.
     */
    bool tickIdle() const { return !deferred_ || deferred_->empty(); }

    /** Organisation identity (for reports). */
    virtual L1DKind kind() const = 0;

    /**
     * The data banks, SRAM first (none for the Oracle). The energy model
     * charges each by its device technology.
     */
    virtual std::vector<const CacheBank *> banks() const { return {}; }

    /**
     * Stats of the read-level predictor, when this organisation has one
     * whose accuracy the paper reports (Dy-FUSE family), so metrics
     * extraction needs no concrete organisation type.
     */
    virtual const StatGroup *predictorStats() const { return nullptr; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  protected:
    /** The queue of work tick() drains, in an organisation that defers
     *  work (the non-blocking FUSE tag queue); null otherwise. */
    const TagQueue *deferred_ = nullptr;

    /** Record a hit/miss in the common stats vocabulary. */
    void countHit(const MemRequest &req);
    void countMiss(const MemRequest &req);
    void countBypass(const MemRequest &req);

    /**
     * Secondary miss: a line with an in-flight fill must not be served
     * from the tag array (the fill was applied eagerly; data arrives
     * with the primary miss). Empty when nothing is in flight for it.
     */
    std::optional<L1DResult> mergeInFlight(const MemRequest &req, Addr line,
                                           Cycle now)
    {
        const MshrEntry *inflight = mshr_->find(line);
        if (!inflight)
            return std::nullopt;
        countMiss(req);
        ++(*statMshrSecondary_);
        return L1DResult{L1DResult::Kind::Miss,
                         std::max(now + 1, inflight->readyAt)};
    }

    /**
     * A stall while every MSHR entry is in flight, retried at the
     * earliest fill. Checked before the off-chip request is issued, so a
     * stalled access retries without double-booking network/DRAM
     * bandwidth. Empty when an entry is free.
     */
    std::optional<L1DResult> mshrFullStall(Cycle now)
    {
        if (!mshr_->full())
            return std::nullopt;
        ++(*statStallMshrFull_);
        return L1DResult{L1DResult::Kind::Stall,
                         std::max(now + 1, mshr_->minReadyAt())};
    }

    /**
     * Send a primary miss off chip and hold an MSHR entry until its data
     * arrives; returns that cycle. Pre-condition: mergeInFlight() and
     * mshrFullStall() both came back empty, which proves a fresh
     * allocation. Write misses allocate too (write-back,
     * write-allocate).
     */
    Cycle issueMiss(const MemRequest &req, Addr line, Cycle now)
    {
        countMiss(req);
        const Cycle ready = hierarchy_->access(req, now);
        mshr_->allocate(line, ready);
        return ready;
    }

    /** Serve a miss from L2 without allocating a line or an MSHR entry. */
    L1DResult bypass(const MemRequest &req, Cycle now)
    {
        countBypass(req);
        return {L1DResult::Kind::Miss, hierarchy_->access(req, now)};
    }

    /** Write @p line back to L2, through the owning SM's NoC port, if it
     *  leaves the L1D dirty. */
    void writeBack(const CacheLine &line, Cycle now);

    StatGroup stats_;
    MemoryHierarchy *hierarchy_;
    /** The MSHR file (every organisation but the Oracle). */
    std::optional<Mshr> mshr_;

  private:
    /** The SM this L1D belongs to. */
    SmId sm_ = 0;
    // Hot-path counters cached out of the string-keyed map.
    StatGroup::Scalar *statHits_;
    StatGroup::Scalar *statReadHits_;
    StatGroup::Scalar *statWriteHits_;
    StatGroup::Scalar *statMisses_;
    StatGroup::Scalar *statReadMisses_;
    StatGroup::Scalar *statWriteMisses_;
    StatGroup::Scalar *statBypasses_;
    StatGroup::Scalar *statReadBypasses_;
    StatGroup::Scalar *statWriteBypasses_;
    StatGroup::Scalar *statMshrSecondary_;
    StatGroup::Scalar *statStallMshrFull_;
    StatGroup::Scalar *statWritebacks_;
};

} // namespace fuse

#endif // FUSE_FUSE_L1D_HH
