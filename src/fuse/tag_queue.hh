/**
 * @file
 * The tag queue (§IV-A): a small FIFO of pending STT-MRAM commands (reads
 * and "F" swap-buffer migrations) that makes the STT-MRAM bank non-blocking.
 * Entries carry only meta-information (command, tag, index); write data for
 * migrations lives in the swap buffer. A mispredicted write-update on
 * STT-MRAM data carries 128B of payload the queue cannot hold, so it forces
 * a flush (the paper measures ~7% of requests hitting this path).
 *
 * Presence-filter interaction (cache/presence.hh): queue entries are
 * meta-only — push, pop, and flush touch no tag array, so neither bank's
 * membership (nor the SRAM bank's presence summary) changes until the
 * drain in HybridL1D::tick() commits a Migrate via the STT bank's fillAt.
 * That drain fills the unfiltered STT bank (the NVM-CBF gate covers that
 * side); the SRAM summary changed once, at the eviction that parked the
 * line, and needs no transition here.
 */

#ifndef FUSE_FUSE_TAG_QUEUE_HH
#define FUSE_FUSE_TAG_QUEUE_HH

#include <cstdint>
#include <deque>

#include "common/stats.hh"
#include "common/types.hh"

namespace fuse
{

/** Command types a tag-queue entry can carry. */
enum class TagCommand : std::uint8_t
{
    Read,       ///< Pending STT-MRAM read (hit service).
    Fill,       ///< Cache-fill write arriving from the MSHR.
    Migrate     ///< "F": swap-buffer -> STT-MRAM migration write.
};

/** One queued STT-MRAM operation. */
struct TagQueueEntry
{
    TagCommand command = TagCommand::Read;
    Addr lineAddr = 0;
};

/**
 * Bounded FIFO (Table I: 16 entries). The owner drains it as the STT-MRAM
 * bank frees up and checks full() before every push (a full queue stalls
 * the SM), so a push into a full queue is a simulator bug.
 */
class TagQueue
{
  public:
    /** Counts pushes and flushes in the owner's @p stats. */
    TagQueue(std::uint32_t capacity, StatGroup &stats);

    /** Enqueue. Pre-condition: !full(); panics otherwise. */
    void push(const TagQueueEntry &entry);

    /** Oldest entry, or nullptr when empty. */
    const TagQueueEntry *front() const;

    /** Remove the oldest entry. */
    void pop();

    /**
     * Flush the queue (mispredicted WM write hits STT-MRAM data: payload
     * can't wait behind meta-only entries). The owner re-queues what must
     * survive (the swap buffer's pending migrations).
     */
    void flush();

    bool empty() const { return queue_.empty(); }
    bool full() const { return queue_.size() >= capacity_; }
    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(queue_.size());
    }
    std::uint32_t capacity() const { return capacity_; }

  private:
    std::uint32_t capacity_;
    std::deque<TagQueueEntry> queue_;
    // Cached counters — push/flush sit on the per-access hot path.
    StatGroup::Scalar *statPushes_;
    StatGroup::Scalar *statFlushes_;
    StatGroup::Scalar *statFlushedEntries_;
};

} // namespace fuse

#endif // FUSE_FUSE_TAG_QUEUE_HH
