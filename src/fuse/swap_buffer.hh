/**
 * @file
 * The swap buffer (§IV-A, Fig. 10): a few 128-byte data registers crossing
 * the SRAM/STT-MRAM bank boundary. A line evicted from SRAM parks here
 * while its "F" migration command waits in the tag queue, so the SRAM bank
 * can accept new fills immediately and the SM pipeline never stalls on the
 * STT-MRAM write latency. Reads snoop the buffer (the data is immediately
 * available from it), which together with the FIFO tag queue provides
 * coherence without extra comparator ports.
 *
 * Presence-filter interaction (cache/presence.hh): a parked line is by
 * construction absent from the SRAM tag array — CacheBank::fillAt evicted
 * it (and removed it from the bank's presence summary) before it got
 * here. The summary therefore correctly reports it "definitely absent",
 * and the snoop path — which runs after the (possibly filter-elided)
 * SRAM lookup regardless of the probe's outcome — is what keeps the line
 * readable mid-migration. No summary maintenance happens at park or
 * release; only tag-array membership is summarised.
 */

#ifndef FUSE_FUSE_SWAP_BUFFER_HH
#define FUSE_FUSE_SWAP_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/line.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fuse
{

/**
 * Bounded pool of in-flight migration lines (Table I: 3 entries). Holds
 * the evicted line's metadata; the timing model treats buffer residency as
 * instantly readable. The owner checks full() before every push.
 */
class SwapBuffer
{
  public:
    /** Counts pushes in the owner's @p stats. */
    SwapBuffer(std::uint32_t capacity, StatGroup &stats);

    /** Park an evicted line. Pre-condition: !full(); panics otherwise. */
    void push(const CacheLine &line);

    /** Line lookup — migrating lines remain readable (snoop path). */
    CacheLine *find(Addr line_addr);

    /** Remove @p line_addr after its migration write completes. */
    std::optional<CacheLine> release(Addr line_addr);

    /** Line addresses currently parked (used to re-queue after a flush). */
    std::vector<Addr> residents() const;

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(entries_.size());
    }
    std::uint32_t capacity() const { return capacity_; }

  private:
    std::uint32_t capacity_;
    std::vector<CacheLine> entries_;
    StatGroup::Scalar *statPushes_;
};

} // namespace fuse

#endif // FUSE_FUSE_SWAP_BUFFER_HH
