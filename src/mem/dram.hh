/**
 * @file
 * GDDR5-style GPU DRAM timing model: multiple channels, banks per channel,
 * open-row policy with tCL/tRCD/tRP/tRAS timing, and per-channel request
 * queues that model coalescing/reordering delay (paper §II-A2).
 *
 * The model is reservation-based rather than cycle-ticked: each request is
 * assigned a service completion time against per-bank and per-channel
 * availability, which preserves queueing and row-locality effects at a
 * fraction of the simulation cost.
 */

#ifndef FUSE_MEM_DRAM_HH
#define FUSE_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace fuse
{

/** DRAM timing/geometry parameters (GPU core-clock cycles). */
struct DramConfig
{
    std::uint32_t numChannels = 6;      ///< Table I: 6 channels.
    std::uint32_t banksPerChannel = 8;
    std::uint32_t rowBytes = 2048;      ///< Row-buffer size per bank.
    // Table I: tCL/tRCD/tRAS = 12/12/28 (memory clock); the GPU core clock
    // is ~2x slower than the command clock in GPGPU-Sim's GDDR5 model, so
    // we interpret these directly as core cycles.
    std::uint32_t tCL = 12;
    std::uint32_t tRCD = 12;
    std::uint32_t tRP = 12;
    std::uint32_t tRAS = 28;
    /** Data burst occupancy of the channel per 128B transaction. */
    std::uint32_t burstCycles = 4;
    /** Extra fixed queue/controller processing latency. */
    std::uint32_t controllerLatency = 8;
    /**
     * FR-FCFS reordering window: the controller coalesces requests to
     * recently-open rows out of its (deep) request queues (§II-A2 "queue
     * all incoming references ... for memory coalescing and reordering").
     * Modelled as this many most-recently-used rows per bank counting as
     * row hits; 1 = plain open-row, 0 behaves like 1.
     */
    std::uint32_t reorderWindowRows = 8;
};

/**
 * Multi-channel DRAM. Addresses interleave across channels at line
 * granularity (matching GPGPU-Sim's default partitioning).
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &config);

    /** Channel servicing @p line_addr. */
    std::uint32_t channelOf(Addr line_addr) const;

    /**
     * Service one 128B transaction.
     * @param line_addr line address.
     * @param is_write  writes occupy the bank but the caller need not wait.
     * @param now       request arrival time at the memory controller.
     * @return cycle at which the data burst completes.
     */
    Cycle service(Addr line_addr, bool is_write, Cycle now);

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    const DramConfig &config() const { return config_; }

  private:
    struct Bank
    {
        /** MRU-ordered recently-open rows (FR-FCFS reordering window);
         *  front is the row currently in the row buffer. */
        std::vector<Addr> recentRows;
        Cycle readyAt = 0;      ///< Bank free (precharge/activate done).
    };

    /** Returns true (and refreshes MRU order) if @p row is in the bank's
     *  reordering window. */
    bool hitRecentRow(Bank &bank, Addr row) const;

    DramConfig config_;
    std::vector<std::vector<Bank>> banks_;  ///< [channel][bank]
    std::vector<Cycle> channelBusyUntil_;   ///< Data-bus occupancy.
    StatGroup stats_;
    // Hot-path counters cached out of the string-keyed map.
    StatGroup::Scalar *statRowHits_;
    StatGroup::Scalar *statRowClosed_;
    StatGroup::Scalar *statRowConflicts_;
    StatGroup::Scalar *statRequests_;
    StatGroup::Scalar *statReads_;
    StatGroup::Scalar *statWrites_;
    StatGroup::Average *statLatency_;
};

} // namespace fuse

#endif // FUSE_MEM_DRAM_HH
