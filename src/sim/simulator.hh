/**
 * @file
 * The public facade: build a GPU for (benchmark, L1D organisation), run
 * it, and extract the Metrics every figure/table consumes. This is the
 * API the examples and benches use.
 */

#ifndef FUSE_SIM_SIMULATOR_HH
#define FUSE_SIM_SIMULATOR_HH

#include <string>

#include "sim/metrics.hh"
#include "sim/sim_config.hh"

namespace fuse
{

/** One-call simulation driver. */
class Simulator
{
  public:
    explicit Simulator(SimConfig config = SimConfig::fermi())
        : config_(std::move(config))
    {}

    /** Run @p benchmark on @p kind and collect metrics. Fatal when
     *  gpu.maxCycles stops the run before every SM retired its budget. */
    Metrics run(const std::string &benchmark, L1DKind kind) const;

    /** Run with explicit spec (for custom/synthetic workloads). */
    Metrics run(const BenchmarkSpec &benchmark, L1DKind kind) const;

    SimConfig &config() { return config_; }
    const SimConfig &config() const { return config_; }

  private:
    SimConfig config_;
};

} // namespace fuse

#endif // FUSE_SIM_SIMULATOR_HH
