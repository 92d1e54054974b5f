#include "fuse/assoc_approx.hh"

#include "common/log.hh"

namespace fuse
{

namespace
{
/** Partition hash: SplitMix64 finaliser, distinct from the CBF hashes. */
std::uint64_t
partitionMix(std::uint64_t key)
{
    std::uint64_t z = key * 0xD6E8FEB86659FD93ull;
    z ^= z >> 32;
    z *= 0xD6E8FEB86659FD93ull;
    return z ^ (z >> 32);
}
} // namespace

AssocApprox::AssocApprox(const AssocApproxConfig &config,
                         std::uint32_t num_lines)
    : config_(config),
      linesPerPartition_(num_lines / (config.numCbfs ? config.numCbfs : 1))
{
    if (config.numCbfs == 0)
        fuse_fatal("approximation logic needs at least one CBF");
    if (linesPerPartition_ == 0)
        linesPerPartition_ = 1;
    cbfs_.reserve(config.numCbfs);
    for (std::uint32_t i = 0; i < config.numCbfs; ++i)
        cbfs_.emplace_back(config.cbfSlots, config.numHashes,
                           config.counterBits);
    residents_.resize(config.numCbfs);
    lastSaturations_.assign(config.numCbfs, 0);
}

void
AssocApprox::refresh(std::uint32_t p)
{
    cbfs_[p].clear();
    for (Addr line : residents_[p])
        cbfs_[p].insert(line);
    lastSaturations_[p] = cbfs_[p].saturations();
}

std::uint32_t
AssocApprox::partitionOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(partitionMix(line_addr)
                                      % config_.numCbfs);
}

void
AssocApprox::insertAt(Addr line_addr, std::uint32_t partition)
{
    cbfs_[partition].insert(line_addr);
    residents_[partition].push_back(line_addr);
}

void
AssocApprox::removeAt(Addr line_addr, std::uint32_t p)
{
    auto &members = residents_[p];
    for (auto it = members.begin(); it != members.end(); ++it) {
        if (*it == line_addr) {
            members.erase(it);
            break;
        }
    }
    cbfs_[p].remove(line_addr);
    // Saturated counters could not be decremented: refresh the partition
    // from its resident tags to clear the residue.
    if (cbfs_[p].saturations() != lastSaturations_[p])
        refresh(p);
}

TagSearchResult
AssocApprox::finish(const CbfProbe &test) const
{
    // Stage 1 happened in test(): the NVM-CBF sense. All CBF columns are
    // sensed in parallel in the 2D MTJ island, so the test costs one
    // STT-MRAM read (§IV-C measures 591ps — under one cache cycle; we
    // charge 1 cycle). A negative test is a definite miss: no polling.
    TagSearchResult result;
    result.partition = test.partition;
    if (test.positive) {
        // Stage 2: poll the positive partition's tag entries with the
        // limited comparator pool: ceil(lines / comparators) serialized
        // cycles.
        result.cycles += (linesPerPartition_ + config_.comparators - 1)
                         / config_.comparators;
    }
    return result;
}

} // namespace fuse
