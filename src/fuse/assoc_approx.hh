/**
 * @file
 * Associativity-approximation logic (§III-B, Fig. 7a; NVM-CBF of §IV-C).
 *
 * The STT-MRAM bank wants fully-associative placement (any WORM block can
 * land anywhere) but cannot afford one comparator per line. The
 * approximation partitions the tag array into data sets, guards each with a
 * counting Bloom filter, and serialises the tag search: the NVM-CBF test
 * completes in one STT-MRAM read cycle, then a polling circuit walks only
 * the CBF-positive partitions with a handful of parallel comparators
 * (4 in the paper). With tuned CBFs the search costs 1-2 cycles in
 * practice while the placement behaves like a fully-associative cache.
 */

#ifndef FUSE_FUSE_ASSOC_APPROX_HH
#define FUSE_FUSE_ASSOC_APPROX_HH

#include <cstdint>
#include <vector>

#include "cache/bloom.hh"
#include "common/types.hh"

namespace fuse
{

/** Approximation-logic parameters (Table I / §IV-C tuned values). */
struct AssocApproxConfig
{
    std::uint32_t numCbfs = 128;      ///< Tag-array partitions.
    std::uint32_t numHashes = 3;      ///< Hash functions per CBF.
    std::uint32_t cbfSlots = 16;      ///< 2-bit counters per CBF.
    std::uint32_t counterBits = 2;
    std::uint32_t comparators = 4;    ///< Parallel tag comparators.
};

/** Cost of a tag search through the approximation logic. */
struct TagSearchResult
{
    std::uint32_t cycles = 1;     ///< Serialized search cycles spent.
    /** Partition the searched line hashes to — handed back so a fill
     *  of the same line in the same access reuses it instead of
     *  re-running the partition hash (the single-probe pipeline). */
    std::uint32_t partition = 0;
};

/**
 * Tracks line membership per partition with real CBFs and computes the
 * serialized search cost. The owner keeps the actual tag storage; this
 * class mirrors membership (insert/remove) and answers "how many cycles
 * does finding/missing this line cost, and which partitions get polled?".
 *
 * Lines are assigned to partitions by address hash; *within* the STT bank
 * they may live in any way of their partition, and partitions are sized so
 * placement is effectively unrestricted (fully-associative behaviour).
 */
class AssocApprox
{
  public:
    AssocApprox(const AssocApproxConfig &config, std::uint32_t num_lines);

    /** Partition that @p line_addr hashes to. */
    std::uint32_t partitionOf(Addr line_addr) const;

    /** Mirror a fill into the partition's CBF. */
    void insert(Addr line_addr) { insertAt(line_addr, partitionOf(line_addr)); }

    /** insert() with the partition already resolved (from a search of
     *  the same line earlier in the access). */
    void insertAt(Addr line_addr, std::uint32_t partition);

    /** Mirror an eviction/invalidation. */
    void remove(Addr line_addr) { removeAt(line_addr, partitionOf(line_addr)); }

    /** remove() with the partition already resolved. */
    void removeAt(Addr line_addr, std::uint32_t partition);

    /** Outcome of the stage-1 NVM-CBF membership test. */
    struct CbfProbe
    {
        bool positive = false;
        std::uint32_t partition = 0;
    };

    /**
     * Stage 1 alone: the parallel CBF-column sense (§IV-C).
     * A negative result proves absence — CBF counters saturate rather
     * than overflow, so the filter never produces a false negative —
     * which lets the owner skip the tag-array residency lookup entirely
     * on definite misses (the single-probe pipeline's gate).
     */
    CbfProbe test(Addr line_addr) const
    {
        const std::uint32_t p = partitionOf(line_addr);
        return {cbfs_[p].test(line_addr), p};
    }

    /**
     * Stage 2: the cost of the serialized search after the stage-1
     * @p test. A negative test ends the search; a positive one polls the
     * partition's tag entries, whether the line is resident or not.
     */
    TagSearchResult finish(const CbfProbe &test) const;

    const AssocApproxConfig &config() const { return config_; }

  private:
    /**
     * Rebuild partition @p p's CBF from its resident lines. Saturated
     * 2-bit counters cannot be decremented safely, so removal residue
     * accumulates; a refresh from the (tiny, <= bank/numCbfs lines)
     * resident set clears it. Hardware performs this as a background
     * sweep of the partition's tags.
     */
    void refresh(std::uint32_t p);

    AssocApproxConfig config_;
    std::uint32_t linesPerPartition_;
    std::vector<CountingBloomFilter> cbfs_;
    /** Ground-truth members per partition (drives refresh()). */
    std::vector<std::vector<Addr>> residents_;
    /** Saturation count at the last refresh, per partition. */
    std::vector<std::uint64_t> lastSaturations_;
};

} // namespace fuse

#endif // FUSE_FUSE_ASSOC_APPROX_HH
