/**
 * @file
 * The result record of one simulation run — everything the paper's tables
 * and figures consume.
 */

#ifndef FUSE_SIM_METRICS_HH
#define FUSE_SIM_METRICS_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "energy/energy_model.hh"
#include "fuse/l1d.hh"

namespace fuse
{

/** Metrics extracted from a finished run. */
struct Metrics
{
    std::string benchmark;
    L1DKind l1dKind = L1DKind::L1Sram;

    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;              ///< Per-SM warp IPC.
    double l1dMissRate = 0.0;
    double apki = 0.0;             ///< Measured accesses/kilo-instruction.

    std::uint64_t offchipRequests = 0;
    double bypassRatio = 0.0;      ///< Fraction of accesses bypassed.

    // Stall decomposition (Fig. 15).
    double sttStallCycles = 0.0;
    double tagSearchStallCycles = 0.0;
    double l1dStallCycles = 0.0;   ///< As observed by the SMs.

    // Predictor accuracy (Fig. 16). The rates are fractions of
    // predOutcomes, the number of blocks whose predicted read-level was
    // scored at eviction (the coverage denominator — 0 for organisations
    // without a predictor).
    double predTrue = 0.0;
    double predFalse = 0.0;
    double predNeutral = 0.0;
    double predOutcomes = 0.0;

    // Off-chip time attribution (Fig. 1a).
    double memWaitFraction = 0.0;  ///< Cycles SMs sat waiting on memory.
    double networkShare = 0.0;     ///< Of off-chip latency, NoC part.
    double dramShare = 0.0;        ///< Of off-chip latency, DRAM part.

    EnergyBreakdown energy;
};

} // namespace fuse

#endif // FUSE_SIM_METRICS_HH
