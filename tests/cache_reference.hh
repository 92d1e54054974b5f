/**
 * @file
 * Test-only reference operations of the cache layer: the two-lookup
 * entry points the single-probe pipeline replaced (each call resolves
 * residency itself) and the MSHR's merge-or-allocate register. No
 * organisation calls them. test_probe_parity and
 * test_presence_parity check the production paths against them, and the
 * unit tests use them to set up and inspect state in one call.
 */

#ifndef FUSE_TESTS_CACHE_REFERENCE_HH
#define FUSE_TESTS_CACHE_REFERENCE_HH

#include <cstdint>
#include <optional>

#include "cache/cache_bank.hh"
#include "cache/mshr.hh"
#include "cache/tag_array.hh"
#include "common/types.hh"

namespace fuse
{

/** A TagArray with the per-call-lookup operations. */
class ReferenceTagArray : public TagArray
{
  public:
    using TagArray::TagArray;

    /** Look up @p line_addr; touch on hit. Returns the line or nullptr. */
    CacheLine *probe(Addr line_addr, Cycle now)
    {
        const Probe p = lookup(line_addr);
        return p.hit() ? hitLine(p, now) : nullptr;
    }

    /** Look up without updating replacement state. */
    const CacheLine *peek(Addr line_addr) const
    {
        return lineAt(lookup(line_addr));
    }

    /** Insert @p line_addr, evicting if the set is full. */
    std::optional<Eviction> fill(Addr line_addr, Cycle now,
                                 CacheLine **filled = nullptr)
    {
        return fillAt(lookup(line_addr), line_addr, now, filled);
    }

    /** Invalidate @p line_addr if present; returns the removed line. */
    std::optional<CacheLine> invalidate(Addr line_addr)
    {
        return invalidateAt(lookup(line_addr));
    }
};

/** A CacheBank with the per-call-lookup operations (fill is already
 *  one: the hybrid's migrations call it). */
class ReferenceCacheBank : public CacheBank
{
  public:
    using CacheBank::CacheBank;

    /** Timed access: lookup + accessAt. */
    CacheLine *access(Addr line_addr, AccessType type, Cycle now,
                      Cycle *done)
    {
        return accessAt(lookup(line_addr), type, now, done);
    }

    /** Untimed tag-only peek (no presence gate, no occupancy). */
    const CacheLine *peek(Addr line_addr) const
    {
        return tags().lineAt(tags().lookup(line_addr));
    }

    /** Invalidate without array occupancy. */
    std::optional<CacheLine> invalidate(Addr line_addr)
    {
        return invalidateAt(tags().lookup(line_addr));
    }
};

/** Outcome of registering a miss with ReferenceMshr::access. */
struct MshrResult
{
    enum class Kind : std::uint8_t
    {
        NewMiss,   ///< Allocated a fresh entry.
        Merged,    ///< Joined an in-flight miss.
        Full       ///< No free entry.
    };
    Kind kind = Kind::Full;
    MshrEntry *entry = nullptr;
};

/** An Mshr with merge-or-allocate registration. */
class ReferenceMshr : public Mshr
{
  public:
    using Mshr::Mshr;

    /** Merge into @p line_addr's in-flight entry (keeping its fill
     *  time), else allocate one, else report Full. */
    MshrResult access(Addr line_addr, Cycle ready_at)
    {
        if (MshrEntry *entry = find(line_addr))
            return {MshrResult::Kind::Merged, entry};
        if (full())
            return {MshrResult::Kind::Full, nullptr};
        return {MshrResult::Kind::NewMiss, allocate(line_addr, ready_at)};
    }
};

} // namespace fuse

#endif // FUSE_TESTS_CACHE_REFERENCE_HH
