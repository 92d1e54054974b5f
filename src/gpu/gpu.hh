/**
 * @file
 * Top-level GPU: N SMs with private L1Ds over a shared MemoryHierarchy,
 * advanced cycle by cycle until every SM retires its instruction budget.
 */

#ifndef FUSE_GPU_GPU_HH
#define FUSE_GPU_GPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "fuse/l1d_factory.hh"
#include "gpu/sm.hh"
#include "mem/hierarchy.hh"
#include "workload/benchmarks.hh"

namespace fuse
{

/** Whole-GPU configuration. */
struct GpuConfig
{
    std::uint32_t numSms = 15;          ///< Table I: 15 SMs.
    std::uint32_t warpsPerSm = 48;
    std::uint64_t instructionBudgetPerSm = 200000;
    /** Hard safety cap on simulated cycles. */
    Cycle maxCycles = 80'000'000;
    std::uint64_t traceSeed = 1;

    NocConfig noc;
    L2Config l2;
    DramConfig dram;
};

/** One assembled GPU instance. */
class Gpu
{
  public:
    Gpu(const GpuConfig &config, L1DKind l1d_kind, const L1DParams &l1d,
        const BenchmarkSpec &benchmark);

    /**
     * Run to completion on the next-event clock (SMs ticked in index
     * order at each due cycle, idle windows credited in bulk); returns
     * total cycles elapsed, capped at config.maxCycles.
     */
    Cycle run();

    /** Aggregate warp-IPC across SMs (instructions / cycles / SMs). */
    double ipc() const;

    /** Aggregate L1D miss rate across SMs. */
    double l1dMissRate() const;

    Cycle cycles() const { return cycles_; }
    std::uint64_t totalInstructions() const;

    MemoryHierarchy &hierarchy() { return *hierarchy_; }
    const MemoryHierarchy &hierarchy() const { return *hierarchy_; }
    std::vector<std::unique_ptr<Sm>> &sms() { return sms_; }
    const std::vector<std::unique_ptr<Sm>> &sms() const { return sms_; }
    const GpuConfig &config() const { return config_; }

    /** Sum of a named scalar stat across all SM L1Ds. */
    double sumL1dStat(const std::string &name) const;
    /** Sum of a named scalar stat across all SMs. */
    double sumSmStat(const std::string &name) const;

  private:
    GpuConfig config_;
    std::unique_ptr<MemoryHierarchy> hierarchy_;
    std::vector<std::unique_ptr<Sm>> sms_;
    Cycle cycles_ = 0;
};

} // namespace fuse

#endif // FUSE_GPU_GPU_HH
