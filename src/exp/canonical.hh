/**
 * @file
 * Canonical serialization of experiment points: the key that finds
 * duplicate cells across the paper's figures (`fuse_sweep --figure all`,
 * SweepRunner::runAll). One run of the simulator is fully determined by
 * (materialised SimConfig, benchmark, L1D kind) — the trace seed lives
 * inside the config — so the canonical text of a spec point is exactly
 * that triple, spelled as a line-oriented "key = value" document in
 * fixed order with %.17g doubles (the same formatting discipline as the
 * exp exporters, so equal configs always produce equal bytes).
 *
 * Two spec points that materialise to the same canonical text are the
 * same simulation, no matter how their specs were built (figure
 * registry, parsed spec file, code): overrides, presets, FUSE_FAST
 * budget scaling and seeds are all applied *before* serialization.
 */

#ifndef FUSE_EXP_CANONICAL_HH
#define FUSE_EXP_CANONICAL_HH

#include <cstddef>
#include <string>

#include "exp/experiment.hh"

namespace fuse
{

/**
 * Every configFields() field of @p config as "key = value" lines, in
 * table order. A new SimConfig field needs a configFields() row: a field
 * missing from the canonical text would let two different
 * configurations share one simulation.
 */
std::string canonicalConfig(const SimConfig &config);

/**
 * Canonical text of one cell of @p spec's (benchmark, variant, kind)
 * grid: a header naming the benchmark, kind and base trace seed, then
 * the variant's fully materialised canonicalConfig.
 */
std::string canonicalSpecPoint(const ExperimentSpec &spec, std::size_t b,
                               std::size_t v, std::size_t k);

} // namespace fuse

#endif // FUSE_EXP_CANONICAL_HH
