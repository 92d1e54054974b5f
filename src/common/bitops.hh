/**
 * @file
 * Bit-scan and hash-mix helpers shared by the hot-path structures
 * (tag-array free-way bitmap, warp-scheduler ready bitmap, flat address
 * map, counting Bloom filters, presence summaries). One definition so a
 * portability fix lands everywhere at once.
 */

#ifndef FUSE_COMMON_BITOPS_HH
#define FUSE_COMMON_BITOPS_HH

#include <cstdint>

namespace fuse
{

/** Index of the lowest set bit. Pre-condition: @p word != 0. */
inline std::uint32_t
countTrailingZeros(std::uint64_t word)
{
#if defined(__GNUC__) || defined(__clang__)
    return static_cast<std::uint32_t>(__builtin_ctzll(word));
#else
    std::uint32_t n = 0;
    while (!(word & 1)) {
        word >>= 1;
        ++n;
    }
    return n;
#endif
}

/**
 * Strong 64-bit mixer (the SplitMix64 finaliser) salted per consumer.
 * Line addresses are highly regular (strided, region-based); the mix
 * spreads them uniformly so hash-indexed structures keep short probe
 * chains and low collision rates. Shared by FlatAddrMap (salt 1), the
 * counting Bloom filter (salt = hash id + 1), and PresenceSummary — the
 * math must stay bit-identical across all of them or committed CBF
 * timing behaviour changes.
 */
inline std::uint64_t
hashMix64(std::uint64_t key, std::uint64_t salt)
{
    std::uint64_t z = key + salt * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace fuse

#endif // FUSE_COMMON_BITOPS_HH
