#include "mem/l2cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace fuse
{

L2Cache::L2Cache(const L2Config &config)
    : config_(config),
      stats_("l2")
{
    if (config.numBanks == 0)
        fuse_fatal("L2 needs at least one bank");
    // An SRAM bank of the L2 geometry whose demand port is busy for
    // cyclePerAccess on every access, hit or fill. It keeps no presence
    // filter, so each access runs exactly one tag search.
    BankConfig bank = makeSramBankConfig(
        config.totalSizeBytes / config.numBanks, config.numWays);
    bank.readLatency = config.cyclePerAccess;
    bank.writeLatency = config.cyclePerAccess;
    bank.presenceFilter = false;
    // Reserve before the loop: emplace into reserved storage never
    // reallocates, so bank construction is a single allocation for the
    // vector plus the banks' own arrays.
    banks_.reserve(config.numBanks);
    for (std::uint32_t b = 0; b < config.numBanks; ++b)
        banks_.emplace_back(bank, "l2.bank" + std::to_string(b));
    statHits_ = &stats_.scalar("hits");
    statMisses_ = &stats_.scalar("misses");
}

std::uint32_t
L2Cache::bankOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(line_addr % config_.numBanks);
}

L2Result
L2Cache::access(Addr line_addr, AccessType type, Cycle now)
{
    const std::uint32_t b = bankOf(line_addr);
    CacheBank &bank = banks_[b];
    // Bank conflict: wait for the bank to free up.
    const Cycle start = std::max(now, bank.busyUntil());

    // Bank-local addressing: dividing out the bank interleave spreads
    // power-of-two-strided lines across the bank's sets (the hashed
    // indexing real L2s use); the quotient is unique per line within a
    // bank, so tags stay exact.
    const Addr bank_local = line_addr / config_.numBanks;
    const TagArray::Probe p = bank.lookup(bank_local);
    L2Result result;
    result.doneAt = start + config_.accessLatency;
    result.hit = bank.accessAt(p, type, start, nullptr) != nullptr;
    if (result.hit) {
        ++(*statHits_);
        return result;
    }
    ++(*statMisses_);
    const std::optional<Eviction> eviction =
        bank.fillAt(p, bank_local, type, start, nullptr, nullptr,
                    CacheBank::Port::Demand);
    if (eviction && eviction->line.dirty) {
        // Reconstruct the global line address from the bank-local tag.
        result.writeback = eviction->line.tag * config_.numBanks + b;
    }
    return result;
}

void
L2Cache::finalizeStats()
{
    for (const auto &bank : banks_)
        stats_.merge(bank.stats());
}

} // namespace fuse
