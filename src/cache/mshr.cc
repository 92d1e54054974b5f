#include "cache/mshr.hh"

namespace fuse
{

Mshr::Mshr(std::uint32_t num_entries, StatGroup &stats)
    : capacity_(num_entries), presence_(num_entries),
      statAllocated_(&stats.scalar("mshr_allocated"))
{
    entries_.reserve(num_entries);
}

MshrEntry *
Mshr::allocate(Addr line_addr, Cycle ready_at)
{
    entries_.push_back({line_addr, ready_at});
    presence_.insert(line_addr);
    if (ready_at < minReadyAt_)
        minReadyAt_ = ready_at;
    ++(*statAllocated_);
    return &entries_.back();
}

void
Mshr::retireReadySlow(Cycle now)
{
    // Free every elapsed entry, moving the last entry into its gap, and
    // take the exact minimum over the survivors in the same pass (it
    // feeds Full-stall retry times).
    Cycle min_ready = kNever;
    for (std::size_t i = 0; i < entries_.size();) {
        MshrEntry &entry = entries_[i];
        if (entry.readyAt <= now) {
            presence_.remove(entry.lineAddr);
            entry = entries_.back();
            entries_.pop_back();
            continue;
        }
        if (entry.readyAt < min_ready)
            min_ready = entry.readyAt;
        ++i;
    }
    minReadyAt_ = min_ready;
}

} // namespace fuse
