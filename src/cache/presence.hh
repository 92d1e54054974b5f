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
 * Each key hashes to one u16 counter. The owner bounds its concurrent
 * membership (maxMembers <= 0xFFFF, checked at construction; the largest
 * geometry in the repo, the 1x512 FA SRAM bank, is far inside it), so
 * counters can never saturate: decrements are exact and "counter == 0"
 * means *definitely absent* forever — no residue, no false-negative
 * risk, no periodic refresh. A zero-counter remove is a maintenance bug
 * in the owner and trips fuse_fatal rather than silently corrupting the
 * no-false-negative contract.
 *
 * The owner maintains the summary at exactly the points membership
 * changes (allocate/retire, fill/evict/invalidate) and consults
 * mayContain() before probing. Keys are line addresses; slots are indexed
 * by the shared hashMix64 mixer at a dedicated salt so the summary
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
    /** A slot counter's ceiling: the most members a summary can hold. */
    static constexpr std::uint16_t kCounterMax = 0xFFFF;

    /**
     * @param max_members greatest number of keys ever live at once (the
     *        owner's capacity: MSHR entries, tag-array lines); fatal
     *        unless it fits a u16 counter. The counter array is the next
     *        power of two >= 16 * max_members (clamped to [256, 2^20]),
     *        which keeps a full structure's false-positive rate near 6%.
     */
    explicit PresenceSummary(std::uint32_t max_members);

    /** false = definitely absent (authoritative); true = probe the
     *  structure. The gate on the consult hot path. */
    bool mayContain(std::uint64_t key) const
    {
        return counters_[slotOf(key)] != 0;
    }

    /** Record @p key becoming a member (owner inserted it). */
    void insert(std::uint64_t key)
    {
        std::uint16_t &c = counters_[slotOf(key)];
        if (c == kCounterMax)
            fuse_fatal("PresenceSummary exact counter overflow: "
                       "owner exceeded max_members=%u",
                       maxMembers_);
        ++c;
    }

    /** Record @p key leaving (owner removed it). Pre-condition: @p key
     *  was insert()ed and not yet removed — unbalanced removes corrupt
     *  the no-false-negative contract, so they trap. */
    void remove(std::uint64_t key)
    {
        std::uint16_t &c = counters_[slotOf(key)];
        if (c == 0)
            fuse_fatal("PresenceSummary remove of absent key %llu: "
                       "owner maintenance bug",
                       static_cast<unsigned long long>(key));
        --c;
    }

  private:
    /** Salt decorrelating the summary from FlatAddrMap (salt 1) and the
     *  approximation CBFs (salts 1..numHashes): "PRES". */
    static constexpr std::uint64_t kSalt = 0x50524553ull;

    std::uint32_t slotOf(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(hashMix64(key, kSalt) &
                                          slotMask_);
    }

    std::uint32_t maxMembers_;
    std::uint32_t slotMask_ = 0;   ///< Counter count - 1 (a power of 2).
    std::vector<std::uint16_t> counters_;
};

} // namespace fuse

#endif // FUSE_CACHE_PRESENCE_HH
