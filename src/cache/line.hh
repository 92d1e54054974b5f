/**
 * @file
 * Cache line metadata shared by every tag array in the project.
 */

#ifndef FUSE_CACHE_LINE_HH
#define FUSE_CACHE_LINE_HH

#include <cstdint>

#include "common/types.hh"

namespace fuse
{

/**
 * Metadata for one cache block. The simulator is timing-only, so no data
 * payload is stored; @c tag holds the full line address for simplicity
 * (a real tag array would store only the upper bits — the area model in
 * src/device accounts for the real tag width).
 */
struct CacheLine
{
    Addr tag = 0;           ///< Full line address of the resident block.
    bool valid = false;
    bool dirty = false;

    /** Blocks written exactly once and never re-referenced are dead. */
    std::uint32_t writeCount = 0;  ///< Writes while resident (read-level bookkeeping).
    std::uint32_t readCount = 0;   ///< Reads while resident.

    /** Predicted read-level recorded at fill time (for accuracy stats). */
    ReadLevel predictedLevel = ReadLevel::ReadIntensive;
    bool hasPrediction = false;

    /** Reset for a fill of @p new_tag. Replacement age lives in the tag
     *  array's AgeListPolicy, not in the line. */
    void
    resetForFill(Addr new_tag)
    {
        tag = new_tag;
        valid = true;
        dirty = false;
        writeCount = 0;
        readCount = 0;
        hasPrediction = false;
        predictedLevel = ReadLevel::ReadIntensive;
    }
};

} // namespace fuse

#endif // FUSE_CACHE_LINE_HH
