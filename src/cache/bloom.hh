/**
 * @file
 * Counting Bloom filter (CBF) with configurable hash-function count, slot
 * count, and counter width — the building block of FUSE's associativity
 * approximation (§III-B, §IV-C). The presence-summary layer
 * (cache/presence.hh) keeps exact u16 counters instead and never
 * saturates.
 *
 * Saturation semantics (the never-false-negative contract, audited for
 * the presence-filter work and regression-tested in tests/test_bloom.cc):
 *
 *  - insert() at a counter already at max does NOT wrap: the counter
 *    stays pinned at max and the event is tallied in saturations().
 *  - remove() at a counter at max does NOT decrement: once saturated,
 *    the filter no longer knows how many members share the slot, so
 *    decrementing could take it to a value that later reaches zero while
 *    members still map there — a false negative. The counter stays
 *    pinned forever (until clear()); the cost is only false positives.
 *  - remove() at a counter at zero is a no-op (defensive; callers must
 *    only remove keys they actually inserted — removing a never-inserted
 *    key whose slots are all unsaturated WOULD decrement counters owned
 *    by other members and can manufacture a false negative. Every caller
 *    in the repo removes only tracked members).
 *
 * Consequently test() == false ("definitely absent") remains
 * authoritative for any discipline that only removes tracked members,
 * even after arbitrary saturation churn.
 */

#ifndef FUSE_CACHE_BLOOM_HH
#define FUSE_CACHE_BLOOM_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace fuse
{

/**
 * One counting Bloom filter: @c numSlots counters of @c counterBits bits,
 * indexed by @c numHashes independent hash functions over the key.
 */
class CountingBloomFilter
{
  public:
    /**
     * @param num_slots     Counter-array length (paper sweeps 32/64/128,
     *                      selects 16 per CBF in the final NVM-CBF array).
     * @param num_hashes    Hash functions (paper sweeps 1..5, selects 3).
     * @param counter_bits  Width of each counter (paper: 2 bits).
     */
    CountingBloomFilter(std::uint32_t num_slots, std::uint32_t num_hashes,
                        std::uint32_t counter_bits = 2);

    /** increment: add @p key to the set. Counters pin at max (see the
     *  file comment); each pinned increment counts one saturation(). */
    void insert(std::uint64_t key);

    /** decrement: remove one occurrence of @p key. Saturated counters
     *  are never decremented (pinned — false positives only, never a
     *  false negative). Pre-condition: @p key was inserted and not yet
     *  removed; unbalanced removes can corrupt other members' counters. */
    void remove(std::uint64_t key);

    /** test: false = definitely absent; true = probably present. */
    bool test(std::uint64_t key) const;

    /** Clear all counters. */
    void clear();

    std::uint32_t numSlots() const { return numSlots_; }
    std::uint32_t numHashes() const { return numHashes_; }

    /** Saturation events observed (counters pinned at max). */
    std::uint64_t saturations() const { return saturations_; }

  private:
    std::uint32_t slotOf(std::uint64_t key, std::uint32_t hash_id) const;

    std::uint32_t numSlots_;
    /** numSlots_ - 1 when numSlots_ is a power of two (the paper's CBF
     *  geometries all are): slotOf then masks instead of dividing. */
    std::uint32_t slotMask_ = 0;
    std::uint32_t numHashes_;
    std::uint8_t counterMax_;
    std::vector<std::uint8_t> counters_;
    std::uint64_t saturations_ = 0;
};

/**
 * Tracks CBF accuracy against ground truth: the caller reports each test
 * along with whether the key was actually present, and the tracker
 * accumulates false-positive statistics (Fig. 20).
 */
class BloomAccuracy
{
  public:
    void
    record(bool predicted_present, bool actually_present)
    {
        ++tests_;
        if (predicted_present && !actually_present)
            ++falsePositives_;
        if (!predicted_present && actually_present)
            ++falseNegatives_;  // must stay 0: CBFs never false-negative
    }

    std::uint64_t tests() const { return tests_; }
    std::uint64_t falsePositives() const { return falsePositives_; }
    std::uint64_t falseNegatives() const { return falseNegatives_; }

    double
    falsePositiveRate() const
    {
        return tests_ ? static_cast<double>(falsePositives_) / tests_ : 0.0;
    }

  private:
    std::uint64_t tests_ = 0;
    std::uint64_t falsePositives_ = 0;
    std::uint64_t falseNegatives_ = 0;
};

} // namespace fuse

#endif // FUSE_CACHE_BLOOM_HH
