#include "cache/mshr.hh"

#include <algorithm>

namespace fuse
{

Mshr::Mshr(std::uint32_t num_entries, StatGroup *stats)
    : capacity_(num_entries), entries_(num_entries), presence_(num_entries)
{
    ready_.reserve(std::size_t(num_entries) * 2);
    if (stats)
        statAllocated_ = &stats->scalar("mshr_allocated");
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
    if (statAllocated_)
        ++(*statAllocated_);
    return entry;
}

void
Mshr::retireReadySlow(Cycle now)
{
    // Pop every elapsed record. A record whose entry was erased early
    // (and possibly re-allocated with a later fill time) is stale —
    // discard it; the live allocation has its own record.
    while (!ready_.empty() && ready_.front().readyAt <= now) {
        const Addr line = ready_.front().lineAddr;
        popReady();
        const MshrEntry *entry = entries_.find(line);
        if (entry && entry->readyAt <= now)
            eraseEntry(line);
    }
    // Skim stale leftovers off the top so the cached minimum is the exact
    // minimum over in-flight entries (it feeds Full-stall retry times).
    while (!ready_.empty()) {
        const MshrEntry *entry = entries_.find(ready_.front().lineAddr);
        if (entry && entry->readyAt == ready_.front().readyAt)
            break;
        popReady();
    }
    minReadyAt_ = ready_.empty() ? kNever : ready_.front().readyAt;
}

} // namespace fuse
