#include "mem/l2cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace fuse
{

L2Cache::L2Cache(const L2Config &config)
    : config_(config),
      bankBusyUntil_(config.numBanks, 0),
      stats_("l2")
{
    if (config.numBanks == 0)
        fuse_fatal("L2 needs at least one bank");
    const std::uint32_t bank_size = config.totalSizeBytes / config.numBanks;
    // Reserve before the loop: emplace into reserved storage never
    // reallocates, so bank construction is a single allocation for the
    // vector plus the banks' own arrays.
    banks_.reserve(config.numBanks);
    for (std::uint32_t b = 0; b < config.numBanks; ++b) {
        banks_.emplace_back(CacheGeometry::fromSize(bank_size,
                                                    config.numWays,
                                                    ReplPolicy::LRU),
                            "l2.bank" + std::to_string(b));
    }
}

std::uint32_t
L2Cache::bankOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(line_addr % config_.numBanks);
}

L2Result
L2Cache::access(Addr line_addr, AccessType type, Cycle now)
{
    const std::uint32_t bank = bankOf(line_addr);
    // Bank conflict: wait for the bank to free up.
    Cycle start = std::max(now, bankBusyUntil_[bank]);
    bankBusyUntil_[bank] = start + config_.cyclePerAccess;

    // Bank-local addressing: dividing out the bank interleave spreads
    // power-of-two-strided lines across the bank's sets (the hashed
    // indexing real L2s use); the quotient is unique per line within a
    // bank, so tags stay exact.
    const Addr bank_local = line_addr / config_.numBanks;
    L2Result result;
    CacheAccessResult access =
        banks_[bank].accessAndFill(bank_local, type, start);
    result.hit = access.hit;
    result.doneAt = start + config_.accessLatency;
    result.needsDram = !access.hit;
    if (access.eviction && access.eviction->line.dirty) {
        // Reconstruct the global line address from the bank-local tag.
        result.writeback = access.eviction->line.tag * config_.numBanks
                           + bank;
    }
    return result;
}

double
L2Cache::missRate() const
{
    double hits = 0;
    double misses = 0;
    for (const auto &bank : banks_) {
        hits += static_cast<double>(bank.hits());
        misses += static_cast<double>(bank.misses());
    }
    double total = hits + misses;
    return total > 0 ? misses / total : 0.0;
}

void
L2Cache::finalizeStats()
{
    for (const auto &bank : banks_)
        stats_.merge(bank.stats());
}

} // namespace fuse
