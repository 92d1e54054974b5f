/**
 * @file
 * Offline trace-replay studies that analyse a workload's generated
 * access stream without a full GPU simulation: the Fig. 6 read-level
 * block classification and the Fig. 20 counting-Bloom-filter accuracy
 * replay, both over walkTrace(). Pure functions of the benchmark spec —
 * safe to fan out across worker threads with parallelFor.
 */

#ifndef FUSE_EXP_TRACE_STUDIES_HH
#define FUSE_EXP_TRACE_STUDIES_HH

#include <cstdint>
#include <functional>

#include "common/types.hh"
#include "workload/benchmarks.hh"

namespace fuse
{

/**
 * Walk the first @p instructions instructions of SM 0's trace of @p spec
 * (15 SMs, 48 warps, seed 1; workloads are symmetric across SMs), one
 * instruction per warp in warp order 0..47, round robin, through the
 * batch frontend the simulator runs. @p fn sees each memory instruction's
 * type and its uncoalesced transaction span [begin, end).
 */
void walkTrace(const BenchmarkSpec &spec, std::uint64_t instructions,
               const std::function<void(AccessType type, const Addr *begin,
                                        const Addr *end)> &fn);

/** Fraction of distinct blocks in each read-level class (Fig. 6). */
struct ReadLevelMix
{
    double wm = 0.0;
    double readIntensive = 0.0;
    double worm = 0.0;
    double woro = 0.0;
};

/**
 * Replay the first 240,000 instructions of one SM's trace of @p spec and
 * classify every distinct data block by the loads and stores it sees.
 * Only stores count as writes (the fill that brings a block on chip does
 * not), so a load-only block is WORM with two or more loads and WORO
 * otherwise, and read-intensive needs exactly one store and four or more
 * loads.
 */
ReadLevelMix readLevelMix(const BenchmarkSpec &spec);

/**
 * Replay @p spec's block stream against one CBF partition of the STT
 * bank (insert on fill, decrement on evict, test on every access) and
 * return the measured false-positive rate (Fig. 20).
 */
double cbfFalsePositiveRate(const BenchmarkSpec &spec,
                            std::uint32_t slots, std::uint32_t hashes);

} // namespace fuse

#endif // FUSE_EXP_TRACE_STUDIES_HH
