/**
 * @file
 * Experiment-level configuration presets: the paper's Table I setup
 * (Fermi/GTX480-class, 15 SMs) and the §V-B Volta study (84 SMs, 6MB L2,
 * 900GB/s, 128KB L1 budget).
 */

#ifndef FUSE_SIM_SIM_CONFIG_HH
#define FUSE_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "energy/energy_model.hh"
#include "fuse/l1d_factory.hh"
#include "gpu/gpu.hh"

namespace fuse
{

/** Bundle of everything one simulation run needs besides the workload. */
struct SimConfig
{
    GpuConfig gpu;
    L1DParams l1d;
    EnergyParams energy;

    /** Table I baseline: 15 SMs, 32KB L1D budget, 786KB/12-bank L2,
     *  6 DRAM channels, butterfly NoC. */
    static SimConfig fermi();

    /** §V-B Volta: 84 SMs, 6MB L2, 900GB/s memory, 128KB L1D budget. */
    static SimConfig volta();

    /** A reduced-scale preset for unit tests (fast, same structure). */
    static SimConfig testScale();

    /**
     * Fatal, naming the offending override key, on a configuration no
     * run can simulate: a field outside its configFields() range, a
     * predictor threshold or initial value the counter cannot hold, or
     * an L1D or L2 bank with more ways than lines. A zero instruction
     * budget is legal (every SM is done at cycle 0).
     */
    void validate() const;
};

/**
 * One SimConfig field. Its path in SimConfig (e.g.
 * "gpu.dram.banksPerChannel") is its spec key and its canonical-text
 * name. validate() holds an integer to [min, max] and a real, which must
 * be finite, to (min, max).
 */
struct ConfigField
{
    using Ref = std::variant<double *, std::uint32_t *, std::uint64_t *>;

    const char *key;
    Ref (*of)(SimConfig &config); ///< The field inside @p config.
    double min;
    double max;

    /** "[min, max]" for an integer, "(min, max)" for a real. */
    std::string range() const;
};

/** Every SimConfig field but gpu.noc.numSmPorts and
 *  l1d.predictor.warpsPerSm, which Gpu sets. */
const std::vector<ConfigField> &configFields();

} // namespace fuse

#endif // FUSE_SIM_SIM_CONFIG_HH
