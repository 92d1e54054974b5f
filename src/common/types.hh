/**
 * @file
 * Fundamental scalar types and constants shared by every subsystem.
 */

#ifndef FUSE_COMMON_TYPES_HH
#define FUSE_COMMON_TYPES_HH

#include <cstdint>

namespace fuse
{

/** Byte address in the simulated GPU global address space. */
using Addr = std::uint64_t;

/** GPU core clock cycle count. */
using Cycle = std::uint64_t;

/** Identifier types (kept distinct for readability in signatures). */
using SmId = std::uint32_t;
using WarpId = std::uint32_t;

/** Cache line (sector) size used throughout: GPUs coalesce to 128B. */
constexpr std::uint32_t kLineSize = 128;
constexpr std::uint32_t kLineShift = 7;

/** Number of threads per warp. */
constexpr std::uint32_t kWarpSize = 32;

/** Convert a byte address to its cache-line address. */
constexpr Addr
lineAddr(Addr addr)
{
    return addr >> kLineShift;
}

/** First byte address of the line containing @p addr. */
constexpr Addr
lineBase(Addr addr)
{
    return addr & ~static_cast<Addr>(kLineSize - 1);
}

/** Kind of memory access issued by a warp. */
enum class AccessType : std::uint8_t { Read, Write };

/**
 * Read-level classes from the paper's Fig. 6 taxonomy.
 *
 * WM    — write-multiple: block is updated more than once while resident.
 * ReadIntensive — few writes, many reads (the predictor's "neutral" zone).
 * WORM  — write-once-read-multiple: filled once, then only read.
 * WORO  — write-once-read-once: touched once; caching it is pointless.
 */
enum class ReadLevel : std::uint8_t { WM, ReadIntensive, WORM, WORO };

/** Human-readable name for a ReadLevel. */
const char *toString(ReadLevel level);

/** Where the hybrid L1D places a missing line (FUSE §IV-A). */
enum class BankId : std::uint8_t { Sram, SttMram, Bypass };

} // namespace fuse

#endif // FUSE_COMMON_TYPES_HH
