/**
 * @file
 * MemoryHierarchy: the full off-chip path behind every L1D — interconnect,
 * shared banked L2, and multi-channel DRAM. L1D misses enter here and get a
 * completion time back; the hierarchy also accumulates the off-chip traffic
 * and latency statistics behind Fig. 1 and the "outgoing references" claim.
 */

#ifndef FUSE_MEM_HIERARCHY_HH
#define FUSE_MEM_HIERARCHY_HH

#include <cstdint>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "mem/l2cache.hh"
#include "mem/request.hh"

namespace fuse
{

/**
 * The shared memory system below the L1Ds. Not thread-safe: one GPU
 * clock drives it, and requests arrive in that clock's (cycle, smId)
 * order, which is the arbitration order every stat depends on.
 */
class MemoryHierarchy
{
  public:
    MemoryHierarchy(const NocConfig &noc_config, const L2Config &l2_config,
                    const DramConfig &dram_config);

    /**
     * Service an L1D miss (or bypassed access).
     * @param req  the transaction (sm id selects the NoC port).
     * @param now  issue time from the L1D/MSHR.
     * @return the cycle the fill data is back at the requesting SM.
     */
    Cycle access(const MemRequest &req, Cycle now);

    /**
     * Write-back of a dirty line evicted from an L1D. Occupies the request
     * network and the L2 bank, but nobody waits on completion.
     */
    void writeback(const MemRequest &req, Cycle now);

    Interconnect &noc() { return noc_; }
    const Interconnect &noc() const { return noc_; }
    L2Cache &l2() { return l2_; }
    const L2Cache &l2() const { return l2_; }
    Dram &dram() { return dram_; }
    const Dram &dram() const { return dram_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    std::uint64_t offchipRequests() const
    {
        return static_cast<std::uint64_t>(stats_.get("requests"));
    }

  private:
    Interconnect noc_;
    L2Cache l2_;
    Dram dram_;
    StatGroup stats_;
    // Hot-path counters cached out of the string-keyed map.
    StatGroup::Scalar *statRequests_;
    StatGroup::Scalar *statReadRequests_;
    StatGroup::Scalar *statWriteRequests_;
    StatGroup::Scalar *statDramRequests_;
    StatGroup::Scalar *statL2Writebacks_;
    StatGroup::Scalar *statWritebacks_;
    StatGroup::Average *statRoundTrip_;
};

} // namespace fuse

#endif // FUSE_MEM_HIERARCHY_HH
