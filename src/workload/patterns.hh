/**
 * @file
 * Memory access-pattern primitives used to compose synthetic GPU kernels.
 * Each benchmark in benchmarks.hh is a weighted mix of these streams; the
 * mix is tuned so the generated address/PC/read-write behaviour matches
 * the per-benchmark characteristics the paper publishes (Table II APKI and
 * bypass ratios, Fig. 6 read-level mix, regular vs irregular access).
 * A cursor has one entry point, generate(), which the generator's decode
 * loop calls at each memory instruction of the cursor's stream.
 */

#ifndef FUSE_WORKLOAD_PATTERNS_HH
#define FUSE_WORKLOAD_PATTERNS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace fuse
{

/**
 * The pattern families observed in the paper's workloads:
 *
 * Stream         — each warp walks its private slice of a large array once
 *                  (matrix rows in GEMM/ATAX, input images): coalesced,
 *                  write-once-read-once at line granularity unless the
 *                  footprint wraps.
 * SharedReuse    — all warps repeatedly read a small shared structure (the
 *                  vector x in ATAX/MVT/GESUMMV, filter taps in 2DCONV):
 *                  WORM / read-intensive blocks.
 * PrivateAccum   — read-modify-write on a small per-warp region (result
 *                  vectors, MapReduce value accumulation in PVC/PVR/SS):
 *                  write-multiple blocks.
 * RandomIrregular— uncoalesced random accesses over a large footprint
 *                  (inverted-index lookups, graph-ish irregularity):
 *                  thrashing, divergent transactions.
 * HotWorkingSet  — divergent accesses over a per-warp cluster of active
 *                  lines that slowly churns through a larger region (the
 *                  row/tile working sets of transposed matrix kernels):
 *                  short per-warp reuse distance, but the 48-warp
 *                  aggregate working set exceeds a small L1D — exactly
 *                  the thrashing regime FUSE's extra capacity targets.
 * Stencil        — neighbourhood walks re-touching adjacent lines
 *                  (FDTD-2D, srad, pathfinder): short-distance reuse.
 */
enum class PatternKind : std::uint8_t
{
    Stream,
    SharedReuse,
    PrivateAccum,
    RandomIrregular,
    HotWorkingSet,
    Stencil
};

const char *toString(PatternKind kind);

/** One address stream inside a kernel. */
struct StreamSpec
{
    PatternKind kind = PatternKind::Stream;
    double weight = 1.0;        ///< Relative share of memory instructions.
    double writeProb = 0.0;     ///< P(store) for an access in this stream.
    std::uint64_t footprintLines = 4096;  ///< Region size in 128B lines.
    std::uint32_t divergence = 1;  ///< Transactions per warp instruction.
    std::uint32_t strideLines = 1; ///< Line stride for Stream walks.
    /** HotWorkingSet: active lines per warp (aggregate per-SM working set
     *  = warps x clusterLines). */
    std::uint32_t clusterLines = 12;
    /** HotWorkingSet: probability an access retires an active line and
     *  admits a fresh one from the region (controls reuse per line). */
    double churnProb = 0.08;
    /** HotWorkingSet: probability a transaction re-touches the previous
     *  line (a thread consuming consecutive words of the same 128B line
     *  across loop iterations — the short-distance reuse the request
     *  sampler observes). */
    double repeatProb = 0.5;
};

/**
 * Per-(warp, stream) cursor state plus the address-generation rules.
 * Stateless across streams: the generator owns one per stream per warp.
 */
class PatternCursor
{
  public:
    PatternCursor() = default;

    /**
     * Append the line-aligned transaction addresses of the stream's next
     * memory instruction to @p out. The first call derives the walk's
     * geometry (initDerived); every later one is an increment-and-wrap
     * step over it.
     *
     * @param spec       stream description.
     * @param base       byte base address of the stream's region.
     * @param warp       issuing warp (for slicing/private regions).
     * @param total_warps warps sharing the stream.
     * @param rng        deterministic generator owned by the warp.
     *                   RandomIrregular and HotWorkingSet draw from it per
     *                   transaction, SharedReuse once on its first call.
     */
    void generate(const StreamSpec &spec, Addr base, WarpId warp,
                  std::uint32_t total_warps, Rng &rng,
                  std::vector<Addr> &out);

    /** Walk position; for SharedReuse its low bit is the pair parity
     *  the generator reads. */
    std::uint64_t position() const { return cursor_; }

  private:
    /** Derive the walk's fixed geometry on the first call: the slice
     *  bounds, base and stride residue, so that every address after it
     *  comes from an increment-and-conditionally-subtract instead of an
     *  integer division. SharedReuse draws its random start here. */
    void initDerived(const StreamSpec &spec, WarpId warp,
                     std::uint32_t total_warps, Rng &rng);

    std::uint64_t cursor_ = 0;
    bool derivedReady_ = false;  ///< initDerived has run.
    std::uint64_t slice_ = 0;    ///< Pattern-specific modulus.
    std::uint64_t sliceBase_ = 0;    ///< First line of the warp's slice.
    std::uint64_t strideMod_ = 0;    ///< strideLines % slice_.
    std::uint64_t phase_ = 0;    ///< Current residue of the cursor walk.
    std::uint32_t step3_ = 0;    ///< Stencil: cursor_ % 3.
    std::vector<std::uint64_t> activeLines_;  ///< HotWorkingSet cluster.
    std::uint64_t lastHotLine_ = ~std::uint64_t(0);  ///< Re-touch target.
};

} // namespace fuse

#endif // FUSE_WORKLOAD_PATTERNS_HH
