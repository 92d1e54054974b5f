/**
 * @file
 * PresenceSummary: an exact never-false-negative membership summary that
 * sits in front of a consult-heavy structure (the MSHR entry file, the
 * SRAM L1D tag array) so definite-miss probes skip the structure
 * entirely. Generalises the NVM-CBF gate (fuse/assoc_approx.hh) into a
 * first-class layer: the gated structure's probe answers stay identical —
 * the filter only proves absence, never presence — so eliding the consult
 * is timing-invisible and every figure output stays byte-identical.
 *
 * Counters are u16, one per hash slot. The owner bounds its concurrent
 * membership (maxMembers * numHashes <= 0xFFFF, checked at construction;
 * the largest geometry in the repo, the 1x512 FA SRAM bank at one hash,
 * is far inside it), so counters can never saturate: decrements are
 * exact and "counter == 0" means *definitely absent* forever — no
 * residue, no false-negative risk, no periodic refresh. A zero-counter
 * remove is a maintenance bug in the owner and trips fuse_fatal rather
 * than silently corrupting the no-false-negative contract.
 *
 * The owner maintains the summary at exactly the points membership
 * changes (allocate/retire, fill/evict/invalidate) and consults
 * mayContain() before probing. Keys are line addresses; slots are indexed
 * by the shared hashMix64 mixer at a dedicated salt base so the summary
 * decorrelates from FlatAddrMap probe chains and the approximation CBFs.
 */

#ifndef FUSE_CACHE_PRESENCE_HH
#define FUSE_CACHE_PRESENCE_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/log.hh"

namespace fuse
{

/**
 * Exact presence summary over 64-bit keys. mayContain() == false is
 * always authoritative: the key is absent.
 */
class PresenceSummary
{
  public:
    /**
     * @param max_members greatest number of keys ever live at once (the
     *        owner's capacity: MSHR entries, tag-array lines). Fatal
     *        unless max_members * num_hashes fits a u16 counter.
     * @param num_slots   counter-array length; 0 auto-sizes to the next
     *        power of two >= 16 * max_members (clamped to [256, 2^20]),
     *        which keeps the expected false-positive rate in the
     *        single-digit percents for a full structure.
     * @param num_hashes  hash functions per key (default 1: the summary
     *        optimises consult cost, and one strong mix already skips the
     *        bulk of definite misses at 1/16 load).
     */
    explicit PresenceSummary(std::uint32_t max_members,
                             std::uint32_t num_slots = 0,
                             std::uint32_t num_hashes = 1);

    /** false = definitely absent (authoritative); true = probe the
     *  structure. The gate on the consult hot path. */
    bool mayContain(std::uint64_t key) const
    {
        for (std::uint32_t h = 0; h < numHashes_; ++h) {
            if (counters_[slotOf(key, h)] == 0)
                return false;
        }
        return true;
    }

    /** Record @p key becoming a member (owner inserted it). */
    void insert(std::uint64_t key)
    {
        ++members_;
        for (std::uint32_t h = 0; h < numHashes_; ++h) {
            std::uint16_t &c = counters_[slotOf(key, h)];
            if (c == kCounterMax)
                fuse_fatal("PresenceSummary exact counter overflow: "
                           "owner exceeded max_members=%u",
                           maxMembers_);
            ++c;
        }
    }

    /** Record @p key leaving (owner removed it). Pre-condition: @p key
     *  was insert()ed and not yet removed — unbalanced removes corrupt
     *  the no-false-negative contract, so they trap. */
    void remove(std::uint64_t key)
    {
        --members_;
        for (std::uint32_t h = 0; h < numHashes_; ++h) {
            std::uint16_t &c = counters_[slotOf(key, h)];
            if (c == 0)
                fuse_fatal("PresenceSummary remove of absent key %llu: "
                           "owner maintenance bug",
                           static_cast<unsigned long long>(key));
            --c;
        }
    }

    /** Forget everything (owner cleared the structure). */
    void clear();

    std::uint32_t numSlots() const { return numSlots_; }
    std::uint32_t numHashes() const { return numHashes_; }
    std::uint32_t maxMembers() const { return maxMembers_; }
    /** Live members per the owner's insert/remove balance. */
    std::uint64_t members() const { return members_; }

  private:
    /** Salt base decorrelating the summary from FlatAddrMap (salt 1) and
     *  the approximation CBFs (salts 1..numHashes): "PRES". */
    static constexpr std::uint64_t kSaltBase = 0x50524553ull;
    static constexpr std::uint16_t kCounterMax = 0xFFFF;

    std::uint32_t slotOf(std::uint64_t key, std::uint32_t h) const
    {
        return static_cast<std::uint32_t>(hashMix64(key, kSaltBase + h) &
                                          slotMask_);
    }

    std::uint32_t maxMembers_;
    std::uint32_t numSlots_ = 0;
    std::uint32_t slotMask_ = 0;   ///< numSlots_ - 1 (always a power of 2).
    std::uint32_t numHashes_;
    std::uint64_t members_ = 0;
    std::vector<std::uint16_t> counters_;
};

} // namespace fuse

#endif // FUSE_CACHE_PRESENCE_HH
