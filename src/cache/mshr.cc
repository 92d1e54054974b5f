#include "cache/mshr.hh"

#include <algorithm>

namespace fuse
{

Mshr::Mshr(std::uint32_t num_entries, StatGroup &stats)
    : capacity_(num_entries), entries_(num_entries), presence_(num_entries),
      statAllocated_(&stats.scalar("mshr_allocated"))
{
    ready_.reserve(num_entries);
}

void
Mshr::pushReady(Cycle ready_at, Addr line_addr)
{
    ready_.push_back({ready_at, line_addr});
    std::push_heap(ready_.begin(), ready_.end(), LaterReady{});
}

void
Mshr::popReady()
{
    std::pop_heap(ready_.begin(), ready_.end(), LaterReady{});
    ready_.pop_back();
}

MshrEntry *
Mshr::allocate(Addr line_addr, Cycle ready_at)
{
    MshrEntry *entry = entries_.insert(line_addr);
    entry->lineAddr = line_addr;
    entry->readyAt = ready_at;
    presence_.insert(line_addr);
    pushReady(ready_at, line_addr);
    if (ready_at < minReadyAt_)
        minReadyAt_ = ready_at;
    ++(*statAllocated_);
    return entry;
}

void
Mshr::retireReadySlow(Cycle now)
{
    // Pop every elapsed record and free its entry; the new top is the
    // exact minimum over in-flight entries (it feeds Full-stall retry
    // times).
    while (!ready_.empty() && ready_.front().readyAt <= now) {
        const Addr line = ready_.front().lineAddr;
        popReady();
        entries_.erase(line);
        presence_.remove(line);
    }
    minReadyAt_ = ready_.empty() ? kNever : ready_.front().readyAt;
}

} // namespace fuse
