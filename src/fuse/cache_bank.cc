#include "fuse/cache_bank.hh"

#include <algorithm>

namespace fuse
{

CacheBank::CacheBank(const BankConfig &config, std::string stat_name)
    : config_(config),
      tags_(config.numSets, config.numWays, config.policy),
      stats_(std::move(stat_name))
{
    if (config.presenceFilter)
        presence_ = std::make_unique<PresenceSummary>(tags_.numLines());
    statReads_ = &stats_.scalar("array_reads");
    statWrites_ = &stats_.scalar("array_writes");
    statFills_ = &stats_.scalar("fills");
    statDirtyEvictions_ = &stats_.scalar("dirty_evictions");
    statCleanEvictions_ = &stats_.scalar("clean_evictions");
}

Cycle
CacheBank::occupy(Cycle now, std::uint32_t latency)
{
    Cycle start = std::max(now, busyUntil_);
    busyUntil_ = start + latency;
    return busyUntil_;
}

Cycle
CacheBank::occupyFill(Cycle now, std::uint32_t latency)
{
    Cycle start = std::max(now, fillBusyUntil_);
    fillBusyUntil_ = start + latency;
    return fillBusyUntil_;
}

CacheLine *
CacheBank::accessAt(const TagArray::Probe &p, AccessType type, Cycle now,
                    Cycle *done)
{
    if (!p.hit())
        return nullptr;
    CacheLine *line = tags_.hitLine(p, now);

    const bool is_write = (type == AccessType::Write);
    Cycle completed = occupy(
        now, is_write ? config_.writeLatency : config_.readLatency);
    if (done)
        *done = completed;

    if (is_write) {
        line->dirty = true;
        ++line->writeCount;
        ++(*statWrites_);
    } else {
        ++line->readCount;
        ++(*statReads_);
    }
    return line;
}

std::optional<Eviction>
CacheBank::fillAt(const TagArray::Probe &p, Addr line_addr, AccessType type,
                  Cycle now, Cycle *done, CacheLine **filled, Port port)
{
    // A fill is an array write regardless of the triggering access type.
    Cycle completed = port == Port::Fill
                          ? occupyFill(now, config_.writeLatency)
                          : occupy(now, config_.writeLatency);
    if (done)
        *done = completed;
    ++(*statWrites_);
    ++(*statFills_);

    CacheLine *slot = nullptr;
    auto eviction = tags_.fillAt(p, line_addr, now, &slot);
    if (presence_) {
        // A hit probe degenerates to a recency touch (no membership
        // change); a miss probe inserts line_addr and may displace the
        // victim — mirror both transitions exactly.
        if (!p.hit()) {
            presence_->insert(line_addr);
            FUSE_PROF_COUNT(l1d_sram, filter_inserts);
        }
        if (eviction) {
            presence_->remove(eviction->line.tag);
            FUSE_PROF_COUNT(l1d_sram, filter_removes);
        }
    }
    if (slot) {
        if (type == AccessType::Write) {
            slot->dirty = true;
            slot->writeCount = 1;
        } else {
            slot->readCount = 1;
        }
    }
    if (filled)
        *filled = slot;
    if (eviction)
        ++(*(eviction->line.dirty ? statDirtyEvictions_
                                  : statCleanEvictions_));
    return eviction;
}

BankConfig
makeSramBankConfig(std::uint32_t size_bytes, std::uint32_t ways,
                   ReplPolicy policy)
{
    BankConfig c;
    c.tech = BankTech::Sram;
    c.sizeBytes = size_bytes;
    c.numWays = ways;
    c.numSets = std::max<std::uint32_t>(1, size_bytes / kLineSize / ways);
    c.policy = policy;
    c.readLatency = 1;
    c.writeLatency = 1;
    // SRAM banks sit on the demand hot path of every organisation and
    // their geometries are small enough for exact counters — gate them.
    c.presenceFilter = true;
    return c;
}

BankConfig
makeSttBankConfig(std::uint32_t size_bytes, std::uint32_t ways,
                  bool fully_associative, ReplPolicy policy)
{
    BankConfig c;
    c.tech = BankTech::SttMram;
    c.sizeBytes = size_bytes;
    if (fully_associative) {
        c.numSets = 1;
        c.numWays = std::max<std::uint32_t>(1, size_bytes / kLineSize);
    } else {
        c.numWays = ways;
        c.numSets =
            std::max<std::uint32_t>(1, size_bytes / kLineSize / ways);
    }
    c.policy = policy;
    c.readLatency = 1;   // Table I: STT-MRAM read is SRAM-comparable.
    c.writeLatency = 5;  // Table I: 5-cycle MTJ write.
    return c;
}

} // namespace fuse
