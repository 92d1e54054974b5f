/**
 * @file
 * Declarative experiment descriptions: an ExperimentSpec names a base
 * machine configuration, a benchmark list, the L1D organisations to
 * evaluate, and an optional list of configuration variants (dotted
 * key=value overrides, e.g. "l1d.sramAreaFraction=0.25"). The SweepRunner
 * expands the (benchmark x variant x kind) grid. Specs can be built in
 * code or parsed from a small line-oriented text format:
 *
 *     # fig18-style sensitivity sweep
 *     name: ratio_sweep
 *     base: fermi                # fermi | volta | test
 *     benchmarks: sensitivity    # all | motivation | sensitivity | list
 *     kinds: Dy-FUSE             # all | comma-separated toString names
 *     seed: 1
 *     variant: 1/16 | l1d.sramAreaFraction=0.0625
 *     variant: 1/2  | l1d.sramAreaFraction=0.5
 */

#ifndef FUSE_EXP_EXPERIMENT_HH
#define FUSE_EXP_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_config.hh"

namespace fuse
{

/** One dotted-path override, e.g. {"l1d.tagQueueEntries", 64}. */
struct ConfigOverride
{
    std::string key;
    double value = 0.0;
};

/** The override keys understood by applyOverride (for --help/docs). */
const std::vector<std::string> &overrideKeys();

/**
 * Apply one override to @p config. Fatal, naming the key, on an unknown
 * key or on a value an integer field cannot hold exactly (negative,
 * fractional or out of range).
 */
void applyOverride(SimConfig &config, const ConfigOverride &override);

/** A labelled point of the configuration dimension. */
struct ConfigVariant
{
    std::string label;
    std::vector<ConfigOverride> overrides;
};

/** The full declarative description of one sweep. */
struct ExperimentSpec
{
    std::string name = "sweep";
    std::string base = "fermi";          ///< fermi | volta | test.
    std::vector<std::string> benchmarks; ///< Resolved workload names.
    std::vector<L1DKind> kinds;
    std::vector<ConfigVariant> variants; ///< Empty means one default.
    /** Base trace seed; every run derives its RNG state from this alone,
     *  so results are independent of the execution schedule. */
    std::uint64_t seed = 1;

    std::size_t variantCount() const
    {
        return variants.empty() ? 1 : variants.size();
    }
    std::size_t runCount() const
    {
        return benchmarks.size() * variantCount() * kinds.size();
    }
    std::vector<std::string> variantLabels() const;

    /** The base preset named by @c base (fatal if unknown). */
    SimConfig baseConfig() const;

    /** Fully materialised configuration of variant @p variant: base
     *  preset + overrides + deterministic trace seeding, validated
     *  (fatal on an invalid value, see SimConfig::validate). */
    SimConfig configFor(std::size_t variant) const;

    /** Parse the text format documented above (fatal on errors). */
    static ExperimentSpec parse(const std::string &text);

    /**
     * Expand a benchmark word: "all", "motivation", "sensitivity", or a
     * workload name (validated against Table II; fatal if unknown).
     */
    static std::vector<std::string> resolveBenchmarks(
        const std::string &word);

    /** Expand a kind word: "all" or a toString(L1DKind) name. */
    static std::vector<L1DKind> resolveKinds(const std::string &word);
};

/** Split on @p sep, trimming surrounding whitespace of every item. */
std::vector<std::string> splitList(const std::string &text, char sep = ',');

} // namespace fuse

#endif // FUSE_EXP_EXPERIMENT_HH
