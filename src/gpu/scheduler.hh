/**
 * @file
 * The warp scheduler: GPGPU-Sim's "loose round robin" default, the one
 * the paper evaluates with. It picks which ready warp issues each cycle.
 *
 * The scheduler is event-driven: the SM pushes a wake event (onWake)
 * whenever a warp issues or blocks, and pickReady() answers from a ready
 * bitmap plus a sleeping-warp min-heap in O(1) amortised, instead of
 * re-scanning every warp's ready time each cycle. Pick order is bit-exact
 * with the historical readiness scan (the scan survives as the reference
 * model in tests/test_scheduler_parity.cc). The whole hot path lives in
 * this header so the SM's per-cycle calls inline.
 */

#ifndef FUSE_GPU_SCHEDULER_HH
#define FUSE_GPU_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"

namespace fuse
{

/**
 * Selects the next warp to issue among the ready set, in round-robin
 * order.
 *
 * Usage: the SM reports every change of a warp's ready time as an event
 * (onWake) and asks pickReady(now) for the issue choice. Warps start
 * ready at cycle 0, matching an SM whose warps can all issue on the
 * first cycle.
 */
class WarpScheduler
{
  public:
    explicit WarpScheduler(std::uint32_t num_warps);

    /**
     * Warp @p warp becomes issue-eligible at cycle @p at (its blocking
     * load returns, its structural stall clears, or it simply finished an
     * instruction and can issue again next cycle). Replaces any earlier
     * wake time for the warp — later *or* earlier; the last event wins.
     */
    void onWake(std::uint32_t warp, Cycle at)
    {
        wakeAt_[warp] = at;
        clearReady(warp);
        if (stagedValid_)
            heapPush(staged_);
        staged_ = {at, warp};
        stagedValid_ = true;
    }

    /**
     * Choose the warp to issue at cycle @p now — the warp the historical
     * per-cycle readiness scan would have picked, in O(1) amortised: the
     * ring of ready bits is walked from the warp after the last issued
     * one. When no warp is ready, returns kNone and stores the earliest
     * pending wake time in @p min_ready (the SM's sleep-until bound).
     */
    std::uint32_t
    pickReady(Cycle now, Cycle *min_ready)
    {
        drainWakes(now);

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
        *min_ready = minPendingWake();
        return kNone;
    }

    /** Notify that @p warp actually issued (moves the ring start). */
    void issued(std::uint32_t warp) { lastIssued_ = warp; }

    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    static constexpr Cycle kNever = ~Cycle(0);

  private:
    /** Sleeping-warp wake record; stale once the warp's wake time moved. */
    struct Wake
    {
        Cycle at;
        std::uint32_t warp;
    };

    /** Heap records are (at << warpBits_) | warp packed into one word:
     *  a heap sift is then a plain integer compare-and-move. Wake times
     *  are bounded by the GPU's cycle cap, far below the 2^(64-warpBits)
     *  packing limit. */
    std::uint64_t pack(const Wake &wake) const
    {
        return (wake.at << warpBits_) | wake.warp;
    }
    Wake unpack(std::uint64_t rec) const
    {
        return {rec >> warpBits_,
                static_cast<std::uint32_t>(rec & ((1u << warpBits_) - 1))};
    }

    /** Push a wake record onto the sleeping-warp min-heap. */
    void
    heapPush(const Wake &wake)
    {
        heap_.push_back(pack(wake));
        std::push_heap(heap_.begin(), heap_.end(),
                       std::greater<std::uint64_t>());
    }

    /** Promote every warp whose wake time has arrived into the ready
     *  set. The dominant wake is "can issue again next cycle", staged
     *  outside the heap and consumed here by the very next pick, so it
     *  costs no heap traffic; a wake is spilled to the heap only when
     *  another arrives before it drains (a genuinely sleeping warp). */
    void
    drainWakes(Cycle now)
    {
        if (stagedValid_ && staged_.at <= now) {
            // A record is live only while it matches the warp's current
            // wake time; onWake supersedes old records without removing
            // them.
            if (wakeAt_[staged_.warp] == staged_.at)
                setReady(staged_.warp);
            stagedValid_ = false;
        }
        if (heap_.empty())
            return;
        const std::uint64_t bound = pack({now + 1, 0});
        while (!heap_.empty() && heap_.front() < bound) {
            const Wake wake = unpack(heap_.front());
            std::pop_heap(heap_.begin(), heap_.end(),
                          std::greater<std::uint64_t>());
            heap_.pop_back();
            if (wakeAt_[wake.warp] == wake.at)
                setReady(wake.warp);
        }
    }

    /** Earliest live wake record (exact: stale records are discarded). */
    Cycle minPendingWake();

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

    void setReady(std::uint32_t warp)
    {
        readyBits_[warp / 64] |= std::uint64_t(1) << (warp % 64);
    }
    void clearReady(std::uint32_t warp)
    {
        readyBits_[warp / 64] &= ~(std::uint64_t(1) << (warp % 64));
    }

    std::uint32_t numWarps_;
    std::uint32_t lastIssued_ = 0;

    /** Bit w set = warp w can issue now (its wake time has passed). */
    std::vector<std::uint64_t> readyBits_;
    /** Current wake time per warp; <= the drain cycle once ready. */
    std::vector<Cycle> wakeAt_;
    /** The most recent wake event, staged outside the heap (see
     *  drainWakes). */
    Wake staged_{0, 0};
    bool stagedValid_ = false;
    std::uint32_t warpBits_ = 1;   ///< Bits of a packed record's warp field.
    /** Min-heap (by cycle) of packed pending wake records. Entries whose
     *  cycle no longer matches the warp's wakeAt_ are stale and skipped
     *  lazily, so re-waking a warp never needs an eager heap deletion. */
    std::vector<std::uint64_t> heap_;
};

} // namespace fuse

#endif // FUSE_GPU_SCHEDULER_HH
