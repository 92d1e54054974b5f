/**
 * @file
 * The warp scheduler: GPGPU-Sim's "loose round robin" default, the one
 * the paper evaluates with. It picks which ready warp issues each cycle.
 *
 * The scheduler is event-driven: the SM reports each wake time it sets
 * (onWake), and pickReady() answers from a ready bitmap instead of
 * re-scanning every warp's ready time each cycle. Every warp is either
 * ready or asleep. Sleepers sit in a second bitmap under one exact
 * earliest wake time, and the first pick at or after it wakes every
 * sleeper that is due in one scan, however many share the cycle (MSHR-
 * full retries wake in herds). A warp that issued and can issue again
 * next cycle keeps its ready bit, so the dominant wake costs nothing.
 * Pick order is bit-exact with the historical readiness scan (the scan
 * survives as the reference model in tests/test_scheduler_parity.cc).
 * The pick lives in this header so the SM's per-cycle calls inline.
 */

#ifndef FUSE_GPU_SCHEDULER_HH
#define FUSE_GPU_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"

namespace fuse
{

/**
 * Selects the next warp to issue among the ready set, in round-robin
 * order.
 *
 * Usage: the SM puts a warp to sleep until the cycle it can issue again
 * (onWake), marks each issue (issued), and asks pickReady(now) for the
 * issue choice once per cycle, at increasing cycles. Warps start ready
 * at cycle 0, matching an SM whose warps can all issue on the first
 * cycle.
 */
class WarpScheduler
{
  public:
    explicit WarpScheduler(std::uint32_t num_warps);

    /**
     * Warp @p warp becomes issue-eligible at cycle @p at (its blocking
     * load returns, or its structural stall clears); until then it
     * sleeps. Replaces any earlier wake time for the warp — later *or*
     * earlier; the last event wins. A warp that issued and can issue
     * again on the next cycle needs no event: it stays ready.
     */
    void onWake(std::uint32_t warp, Cycle at)
    {
        // Moving the earliest sleeper may move the earliest wake later:
        // the next pick rescans. (The SM only puts to sleep the warp it
        // just picked, which is ready; only the tests move a sleeper.)
        if (test(sleepBits_, warp) && wakeAt_[warp] == nextWake_)
            nextWake_ = 0;
        clear(readyBits_, warp);
        set(sleepBits_, warp);
        wakeAt_[warp] = at;
        nextWake_ = std::min(nextWake_, at);
    }

    /**
     * Choose the warp to issue at cycle @p now — the warp the historical
     * per-cycle readiness scan would have picked: the ring of ready bits
     * is walked from the warp after the last issued one. When no warp is
     * ready, returns kNone and stores the earliest wake time in
     * @p min_ready (the SM's sleep-until bound).
     */
    std::uint32_t
    pickReady(Cycle now, Cycle *min_ready)
    {
        if (nextWake_ <= now)
            wakeSleepers(now);

        // Ring order: the warp after the last issued one first; the last
        // issued warp itself has lowest priority. The wrapped probe from
        // 0 can only surface warps at or below lastIssued_, because the
        // first probe covered everything above it.
        std::uint32_t w = findReadyFrom(lastIssued_ + 1 < numWarps_
                                            ? lastIssued_ + 1
                                            : 0);
        if (w == kNone)
            w = findReadyFrom(0);
        if (w != kNone)
            return w;
        *min_ready = nextWake_;
        return kNone;
    }

    /** Notify that @p warp actually issued (moves the ring start). */
    void issued(std::uint32_t warp) { lastIssued_ = warp; }

    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    static constexpr Cycle kNever = ~Cycle(0);

  private:
    /** Move every sleeper due by @p now to the ready set and recompute
     *  nextWake_ over the rest — one scan per wake cycle. */
    void wakeSleepers(Cycle now);

    /** Lowest ready warp id >= @p start, or kNone. */
    std::uint32_t
    findReadyFrom(std::uint32_t start) const
    {
        if (start >= numWarps_)
            return kNone;
        std::size_t i = start / 64;
        std::uint64_t word =
            readyBits_[i] & (~std::uint64_t(0) << (start % 64));
        for (;;) {
            if (word)
                return static_cast<std::uint32_t>(i * 64)
                       + countTrailingZeros(word);
            if (++i >= readyBits_.size())
                return kNone;
            word = readyBits_[i];
        }
    }

    static bool test(const std::vector<std::uint64_t> &bits,
                     std::uint32_t warp)
    {
        return (bits[warp / 64] >> (warp % 64)) & 1;
    }
    static void set(std::vector<std::uint64_t> &bits, std::uint32_t warp)
    {
        bits[warp / 64] |= std::uint64_t(1) << (warp % 64);
    }
    static void clear(std::vector<std::uint64_t> &bits, std::uint32_t warp)
    {
        bits[warp / 64] &= ~(std::uint64_t(1) << (warp % 64));
    }

    std::uint32_t numWarps_;
    std::uint32_t lastIssued_ = 0;

    /** Bit w set = warp w can issue now. */
    std::vector<std::uint64_t> readyBits_;
    /** Bit w set = warp w sleeps until wakeAt_[w]; disjoint from
     *  readyBits_. */
    std::vector<std::uint64_t> sleepBits_;
    /** Wake time per sleeping warp. */
    std::vector<Cycle> wakeAt_;
    /** Earliest wakeAt_ over the sleepers (kNever when none), exact
     *  after every pick; 0 forces the next pick to rescan. */
    Cycle nextWake_ = kNever;
};

} // namespace fuse

#endif // FUSE_GPU_SCHEDULER_HH
