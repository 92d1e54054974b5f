#include "mem/dram.hh"

#include <algorithm>

#include "common/log.hh"

namespace fuse
{

Dram::Dram(const DramConfig &config)
    : config_(config),
      banks_(config.numChannels,
             std::vector<Bank>(config.banksPerChannel)),
      channelBusyUntil_(config.numChannels, 0),
      stats_("dram")
{
    if (config.numChannels == 0 || config.banksPerChannel == 0)
        fuse_fatal("DRAM needs at least one channel and one bank");
    statRowHits_ = &stats_.scalar("row_hits");
    statRowClosed_ = &stats_.scalar("row_closed");
    statRowConflicts_ = &stats_.scalar("row_conflicts");
    statRequests_ = &stats_.scalar("requests");
    statReads_ = &stats_.scalar("reads");
    statWrites_ = &stats_.scalar("writes");
    statLatency_ = &stats_.average("service_latency");
}

bool
Dram::hitRecentRow(Bank &bank, Addr row) const
{
    for (std::size_t i = 0; i < bank.recentRows.size(); ++i) {
        if (bank.recentRows[i] == row) {
            // Refresh MRU order.
            bank.recentRows.erase(bank.recentRows.begin()
                                  + static_cast<std::ptrdiff_t>(i));
            bank.recentRows.insert(bank.recentRows.begin(), row);
            return true;
        }
    }
    return false;
}

std::uint32_t
Dram::channelOf(Addr line_addr) const
{
    return static_cast<std::uint32_t>(line_addr % config_.numChannels);
}

Cycle
Dram::service(Addr line_addr, bool is_write, Cycle now)
{
    const std::uint32_t channel = channelOf(line_addr);
    // Lines interleave across channels; consecutive lines within a channel
    // land in the same row until rowBytes is exhausted.
    const Addr channel_line = line_addr / config_.numChannels;
    const Addr lines_per_row = config_.rowBytes / kLineSize;
    const Addr row = channel_line / lines_per_row;
    const std::uint32_t bank = static_cast<std::uint32_t>(
        (channel_line / lines_per_row) % config_.banksPerChannel);

    Bank &b = banks_[channel][bank];
    Cycle start = std::max(now + config_.controllerLatency, b.readyAt);

    Cycle access_done;
    if (hitRecentRow(b, row)) {
        // Row-buffer hit (directly open, or coalesced with an in-queue
        // request to the same row by FR-FCFS reordering): CAS only.
        ++(*statRowHits_);
        access_done = start + config_.tCL;
    } else if (b.recentRows.empty()) {
        // Bank idle/closed: activate then CAS.
        ++(*statRowClosed_);
        access_done = start + config_.tRCD + config_.tCL;
        b.recentRows.insert(b.recentRows.begin(), row);
        b.readyAt = start + config_.tRAS;
    } else {
        // Row conflict: precharge, activate, CAS.
        ++(*statRowConflicts_);
        access_done = start + config_.tRP + config_.tRCD + config_.tCL;
        const std::uint32_t window =
            std::max<std::uint32_t>(1, config_.reorderWindowRows);
        b.recentRows.insert(b.recentRows.begin(), row);
        if (b.recentRows.size() > window)
            b.recentRows.resize(window);
        b.readyAt = start + config_.tRP + config_.tRAS;
    }

    // Data burst must also win the shared channel data bus.
    Cycle burst_start = std::max(access_done, channelBusyUntil_[channel]);
    Cycle done = burst_start + config_.burstCycles;
    channelBusyUntil_[channel] = done;

    ++(*statRequests_);
    ++(*(is_write ? statWrites_ : statReads_));
    statLatency_->sample(static_cast<double>(done - now));
    return done;
}

} // namespace fuse
