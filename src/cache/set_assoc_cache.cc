#include "cache/set_assoc_cache.hh"

namespace fuse
{

SetAssocCache::SetAssocCache(const CacheGeometry &geometry,
                             std::string stat_prefix)
    : tags_(geometry.numSets, geometry.numWays, geometry.policy),
      stats_(std::move(stat_prefix))
{
    statHits_ = &stats_.scalar("hits");
    statWriteHits_ = &stats_.scalar("write_hits");
    statReadHits_ = &stats_.scalar("read_hits");
    statMisses_ = &stats_.scalar("misses");
    statWriteMisses_ = &stats_.scalar("write_misses");
    statReadMisses_ = &stats_.scalar("read_misses");
    statFills_ = &stats_.scalar("fills");
    statDirtyEvictions_ = &stats_.scalar("dirty_evictions");
    statCleanEvictions_ = &stats_.scalar("clean_evictions");
}

bool
SetAssocCache::accessAt(const TagArray::Probe &p, AccessType type, Cycle now)
{
    if (p.hit()) {
        CacheLine *line = tags_.hitLine(p, now);
        ++(*statHits_);
        if (type == AccessType::Write) {
            line->dirty = true;
            ++line->writeCount;
            ++(*statWriteHits_);
        } else {
            ++line->readCount;
            ++(*statReadHits_);
        }
        return true;
    }
    ++(*statMisses_);
    ++(*(type == AccessType::Write ? statWriteMisses_ : statReadMisses_));
    return false;
}

CacheAccessResult
SetAssocCache::fillAt(const TagArray::Probe &p, Addr line_addr,
                      AccessType type, Cycle now)
{
    CacheAccessResult result;
    CacheLine *filled = nullptr;
    auto eviction = tags_.fillAt(p, line_addr, now, &filled);
    ++(*statFills_);
    if (filled) {
        if (type == AccessType::Write) {
            filled->dirty = true;
            filled->writeCount = 1;
        } else {
            filled->readCount = 1;
        }
    }
    if (eviction) {
        ++(*(eviction->line.dirty ? statDirtyEvictions_
                                  : statCleanEvictions_));
        result.eviction = eviction;
    }
    return result;
}

CacheAccessResult
SetAssocCache::accessAndFill(Addr line_addr, AccessType type, Cycle now)
{
    const TagArray::Probe p = tags_.lookup(line_addr);
    if (accessAt(p, type, now)) {
        CacheAccessResult r;
        r.hit = true;
        return r;
    }
    CacheAccessResult r = fillAt(p, line_addr, type, now);
    r.hit = false;
    return r;
}

} // namespace fuse
