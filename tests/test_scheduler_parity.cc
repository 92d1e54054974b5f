/**
 * @file
 * Differential parity tier for the event-driven warp scheduler. The
 * pre-refactor scheduler evaluated readiness by scanning every warp's
 * ready time on each pick; that scan survives here as the reference
 * model, and the event-driven WarpScheduler (ready bitmap, plus a
 * sleeping bitmap under one exact earliest wake time that a single scan
 * per wake cycle drains) is driven through long random wake/issue
 * sequences against it. The sequences drive it the way the SM does — a
 * warp due back next cycle keeps its ready bit, a later wake puts it to
 * sleep — and through the raw API, including herds of warps that sleep
 * until one shared cycle (MSHR-full retries all wait for the earliest
 * fill). Both the picked warp id and the no-warp-ready sleep bound
 * (min_ready) must match exactly on every step — the SM's sleep windows,
 * and through them the GPU's next-event clock, are timing observable, so
 * "almost" is a simulation bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "gpu/scheduler.hh"

namespace fuse
{
namespace
{

/**
 * The historical round-robin readiness-scan scheduler, verbatim:
 * pickReady walks readyAt_ in ring order from the warp after the last
 * issued one and accumulates the minimum pending ready time when nothing
 * is eligible.
 */
class LegacyScanScheduler
{
  public:
    explicit LegacyScanScheduler(std::uint32_t num_warps)
        : numWarps_(num_warps), readyAt_(num_warps, 0)
    {
    }

    void onWake(std::uint32_t warp, Cycle at) { readyAt_[warp] = at; }

    std::uint32_t
    pickReady(Cycle now, Cycle *min_ready)
    {
        Cycle min_r = kNever;
        for (std::uint32_t i = 1; i <= numWarps_; ++i) {
            std::uint32_t w = (lastIssued_ + i) % numWarps_;
            if (readyAt_[w] <= now)
                return w;
            min_r = std::min(min_r, readyAt_[w]);
        }
        *min_ready = min_r;
        return kNone;
    }

    void issued(std::uint32_t warp) { lastIssued_ = warp; }

    static constexpr std::uint32_t kNone = ~std::uint32_t(0);
    static constexpr Cycle kNever = ~Cycle(0);

  private:
    std::uint32_t numWarps_;
    std::uint32_t lastIssued_ = 0;
    std::vector<Cycle> readyAt_;
};

/**
 * Drive both schedulers through @p steps random steps. Each step
 * advances time, picks (asserting identical choices and, when nothing is
 * ready, identical min_ready), and then perturbs warp state the way an
 * SM would — issue the picked warp and put it back: usually "ready again
 * next cycle", sometimes a long memory sleep, and with probability
 * @p herd a structural retry at the current herd's shared wake cycle,
 * so many warps wake at once. On top come adversarial events the SM
 * never generates but the API allows: spontaneous re-wakes of any warp
 * that move a pending wake earlier or later (out of a herd, into one,
 * or onto a long sleep).
 */
void
runParity(std::uint32_t num_warps, std::uint64_t seed, int steps,
          double herd)
{
    LegacyScanScheduler ref(num_warps);
    WarpScheduler sched(num_warps);
    Rng rng(seed);

    Cycle now = 0;
    Cycle herd_at = 0;   // Wake cycle shared by the current herd.
    for (int step = 0; step < steps; ++step) {
        Cycle ref_min = 0;
        Cycle min = 0;
        const std::uint32_t ref_pick = ref.pickReady(now, &ref_min);
        const std::uint32_t pick = sched.pickReady(now, &min);
        ASSERT_EQ(pick, ref_pick)
            << "warps=" << num_warps << " step=" << step << " now=" << now;
        if (pick == WarpScheduler::kNone) {
            ASSERT_EQ(min, ref_min)
                << "warps=" << num_warps << " step=" << step << " now=" << now;
            // Sleep exactly to the bound, like the SM's idle fast path.
            now = min;
        } else {
            Cycle at = 0;
            if (rng.chance(herd)) {
                // A retry at the earliest fill: every warp that stalls
                // before that cycle joins the herd waking at it.
                if (herd_at <= now + 1)
                    herd_at = now + 2 + rng.below(300);
                at = herd_at;
            } else {
                at = rng.chance(0.6) ? now + 1 : now + 1 + rng.below(300);
            }
            ref.onWake(pick, at);
            ref.issued(pick);
            // The SM's pattern (Sm::wake): a warp due back next cycle
            // keeps its ready bit. Now and then the raw API is used for
            // it instead, which must agree.
            if (at > now + 1 || rng.chance(0.1))
                sched.onWake(pick, at);
            sched.issued(pick);
            ++now;
        }

        // Adversarial extras at a low rate: spontaneous re-wakes (earlier
        // or later than a pending wake, into the herd or out of it) and
        // long sleeps.
        if (rng.chance(0.05)) {
            const auto w =
                static_cast<std::uint32_t>(rng.below(num_warps));
            Cycle at = now + rng.below(400);
            if (rng.chance(0.25))
                at = now + 1000 + rng.below(20000);
            else if (rng.chance(0.3) && herd_at >= now)
                at = herd_at;
            ref.onWake(w, at);
            sched.onWake(w, at);
        }
        // Occasionally stall time entirely (repeated picks at one cycle
        // would double-issue; instead re-pick after events only).
        if (rng.chance(0.02))
            now += rng.below(5);
    }
}

class SchedulerParity : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SchedulerParity, RandomWakeIssueSequences)
{
    const std::uint32_t warps = GetParam();
    // Several independent sequences per configuration; ~1e5 steps total.
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runParity(warps, seed * 0x9E3779B9ull + warps, 25000, 0.0);
}

TEST_P(SchedulerParity, HerdWakeSequences)
{
    // Most issues end in a retry at the shared herd cycle: many warps
    // leave the sleeping set in one drain, and re-wakes split herds.
    const std::uint32_t warps = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        runParity(warps, seed * 0x85EBCA6Bull + warps, 25000, 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    WarpCounts, SchedulerParity,
    // 1-warp and 48-warp are the SM edges; 64/128 exercise the
    // multi-word ready bitmap, 2/3 the tiny-ring wrap-around.
    ::testing::Values(1u, 2u, 3u, 48u, 64u, 128u));

TEST(SchedulerParityEdge, SingleWarpRoundRobinSelfSuccession)
{
    // numWarps == 1: the ring is the warp itself; the scan probes
    // (last + 1) % 1 == 0 and must keep picking warp 0.
    LegacyScanScheduler ref(1);
    WarpScheduler sched(1);
    Cycle now = 0;
    for (int i = 0; i < 100; ++i) {
        Cycle ref_min = 0;
        Cycle min = 0;
        const auto a = sched.pickReady(now, &min);
        const auto b = ref.pickReady(now, &ref_min);
        ASSERT_EQ(a, b);
        if (a == WarpScheduler::kNone) {
            ASSERT_EQ(min, ref_min);
            now = min;
            continue;
        }
        sched.onWake(a, now + 3);
        sched.issued(a);
        ref.onWake(b, now + 3);
        ref.issued(b);
        ++now;
    }
}

} // namespace
} // namespace fuse
