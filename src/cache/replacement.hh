/**
 * @file
 * The event-driven replacement engine of the set-associative tag arrays:
 * LRU for SRAM banks and FIFO for the (approximately) fully-associative
 * STT-MRAM bank, whose circuit cannot afford true LRU.
 *
 * The engine is notified of every fill/hit/invalidate and keeps a
 * per-set intrusive age list, so victim() is O(1) instead of scanning
 * all ways — the 512-way approximated-FA STT bank used to pay a full-way
 * timestamp scan per eviction. The victim choice is *bit-identical* to
 * the historical scan implementations, including the lowest-way-index
 * tie break on equal timestamps; the differential parity tier
 * (tests/test_replacement_parity.cc) drives both against each other, and
 * the golden-figure tier pins the end-to-end output.
 */

#ifndef FUSE_CACHE_REPLACEMENT_HH
#define FUSE_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fuse
{

/** Which replacement policy a tag array runs. */
enum class ReplPolicy : std::uint8_t { LRU, FIFO };

/**
 * Replacement engine for both policies: one intrusive doubly-linked list
 * per set, kept sorted ascending by (stamp, way). The head is therefore
 * always argmin(stamp, way) — exactly what the historical "scan all ways
 * for the minimum, lowest index wins ties" implementations computed — and
 * victim() is a single head read. Fills stamp a way with the fill cycle;
 * under LRU hits re-stamp it too, under FIFO they are ignored, so the
 * stamp is the last touch or the insertion time respectively.
 *
 * promote() re-links a way with a new stamp. Because simulation time is
 * monotonic, the insertion point is the tail or a few steps before it
 * (only same-cycle touches of the same set walk further), so updates are
 * O(1) amortised; the walk degrades gracefully (stays correct) if a
 * caller ever hands in non-monotonic stamps.
 *
 * Protocol (the owner, TagArray, reports every state change; the engine
 * answers victim() without looking at the lines):
 *  - onFill(set, way, now): a line was installed into @p way. Replacing a
 *    valid line is signalled by the victim(set) -> onFill(set, victim)
 *    pair — no separate eviction event is raised for the displaced line.
 *  - onHit(set, way, now): @p way was touched (probe hit, or a refill
 *    over an already-resident line, which updates recency but not
 *    insertion age).
 *  - onEvict(set, way): the line left the set *without* a replacement
 *    fill (invalidation); @p way is free afterwards.
 *  - victim(set): the way to replace. Only meaningful when every way of
 *    @p set is valid (the owner prefers free ways first).
 *  - reset(): the array was cleared (kernel boundary / test reset).
 */
class AgeListPolicy
{
  public:
    AgeListPolicy(ReplPolicy policy, std::uint32_t num_sets,
                  std::uint32_t num_ways);

    void onFill(std::uint32_t set, std::uint32_t way, Cycle now)
    {
        promote(set, way, now);
    }
    void onHit(std::uint32_t set, std::uint32_t way, Cycle now)
    {
        if (reageOnHit_)
            promote(set, way, now);
    }
    void onEvict(std::uint32_t set, std::uint32_t way);
    std::uint32_t victim(std::uint32_t set) const;
    void reset();

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t(0);

    std::size_t slot(std::uint32_t set, std::uint32_t way) const
    {
        return std::size_t(set) * numWays_ + way;
    }
    /** Unlink @p way if linked, then insert it in (stamp, way) order. */
    void promote(std::uint32_t set, std::uint32_t way, Cycle stamp);
    void unlink(std::uint32_t set, std::uint32_t way);

    bool reageOnHit_;                  ///< LRU: hits re-stamp the way.
    std::uint32_t numWays_;
    std::vector<std::uint32_t> head_;  ///< Oldest way per set (the victim).
    std::vector<std::uint32_t> tail_;  ///< Youngest way per set.
    std::vector<std::uint32_t> next_;  ///< Towards younger, kNone at tail.
    std::vector<std::uint32_t> prev_;  ///< Towards older, kNone at head.
    std::vector<Cycle> stamp_;         ///< Age key of each linked way.
    std::vector<std::uint8_t> linked_; ///< Way currently in its set list?
};

} // namespace fuse

#endif // FUSE_CACHE_REPLACEMENT_HH
