/**
 * @file
 * Memory access-pattern primitives used to compose synthetic GPU kernels.
 * Each benchmark in benchmarks.hh is a weighted mix of these streams; the
 * mix is tuned so the generated address/PC/read-write behaviour matches
 * the per-benchmark characteristics the paper publishes (Table II APKI and
 * bypass ratios, Fig. 6 read-level mix, regular vs irregular access).
 * A cursor has one entry point, generateBatch(): the generator's decode
 * loop calls it at each instruction for the RNG-drawing kinds, and up to
 * a prefetch block of instructions ahead for the others.
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
     * @p instructions memory instructions (one generate-equivalent each)
     * to @p out — the same addresses, in the same order, whether they are
     * asked for one instruction at a time or many. The per-kind dispatch
     * and derived-state loads happen once per call; the inner loops are
     * tight increment-and-wrap walks over the precomputed
     * slice/phase/stride residues (the SoA-style state initDerived()
     * reduces to).
     *
     * @param spec       stream description.
     * @param base       byte base address of the stream's region.
     * @param warp       issuing warp (for slicing/private regions).
     * @param total_warps warps sharing the stream.
     * @param rng        deterministic generator owned by the warp.
     *
     * RNG contract: Stream / PrivateAccum / Stencil never touch @p rng
     * and SharedReuse touches it only on its very first call, so for
     * those kinds a batch may be generated AHEAD of the warp's decode
     * order and buffered. RandomIrregular and HotWorkingSet draw from
     * @p rng per transaction: their batches must be generated exactly at
     * the instruction's decode point, or the warp's draw order (and every
     * trace downstream) changes.
     */
    void generateBatch(const StreamSpec &spec, Addr base, WarpId warp,
                       std::uint32_t total_warps, Rng &rng,
                       std::uint32_t instructions, std::vector<Addr> &out);

  private:
    /** Pre-reduce the per-call modular state. The spec/warp geometry of a
     *  cursor never changes (the generator owns one cursor per stream per
     *  warp), so the slice bounds, bases, and stride residues are
     *  computed once and every subsequent address comes from an
     *  increment-and-conditionally-subtract — the integer divisions that
     *  made address generation a fixture of the profile are gone from
     *  the per-call path. Values are bit-exact with the original modular
     *  arithmetic. */
    void initDerived(const StreamSpec &spec, WarpId warp,
                     std::uint32_t total_warps);

    std::uint64_t cursor_ = 0;
    bool initialized_ = false;   ///< SharedReuse random start applied.
    bool derivedReady_ = false;  ///< initDerived has run.
    std::uint64_t slice_ = 0;    ///< Pattern-specific modulus.
    std::uint64_t sliceBase_ = 0;    ///< First line of the warp's slice.
    std::uint64_t strideMod_ = 0;    ///< strideLines % slice_.
    std::uint64_t phase_ = 0;    ///< Current residue of the cursor walk.
    std::uint32_t step3_ = 0;    ///< Stencil: cursor_ % 3.
    std::vector<std::uint64_t> activeLines_;  ///< HotWorkingSet cluster.
    std::uint64_t lastHotLine_ = ~std::uint64_t(0);  ///< Re-touch target.

  public:
    /** Walk position; for SharedReuse its low bit is the pair parity
     *  the generator reads. */
    std::uint64_t position() const { return cursor_; }
};

} // namespace fuse

#endif // FUSE_WORKLOAD_PATTERNS_HH
