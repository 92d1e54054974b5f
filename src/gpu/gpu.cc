#include "gpu/gpu.hh"

#include <algorithm>

#include "common/log.hh"

namespace fuse
{

Gpu::Gpu(const GpuConfig &config, L1DKind l1d_kind, const L1DParams &l1d,
         const BenchmarkSpec &benchmark)
    : config_(config)
{
    NocConfig noc = config.noc;
    noc.numSmPorts = config.numSms;
    hierarchy_ = std::make_unique<MemoryHierarchy>(noc, config.l2,
                                                   config.dram);

    sms_.reserve(config.numSms);
    for (SmId s = 0; s < config.numSms; ++s) {
        SmConfig sm_config;
        sm_config.warpsPerSm = config.warpsPerSm;
        sm_config.instructionBudget = config.instructionBudgetPerSm;
        auto kernel = std::make_unique<KernelGenerator>(
            benchmark, s, config.numSms, config.warpsPerSm,
            config.traceSeed);
        auto l1d_cache = makeL1D(l1d_kind, l1d, *hierarchy_, s);
        sms_.push_back(std::make_unique<Sm>(s, sm_config,
                                            std::move(l1d_cache),
                                            std::move(kernel)));
    }
}

Cycle
Gpu::run()
{
    // Next-event clock. Instead of lock-step ticking every SM every
    // cycle, each SM carries the next cycle it must observe: the next
    // cycle outright while it is executing or its L1D has deferred work
    // (tag-queue drains run per cycle), its wake-up bound while every
    // warp sleeps, and never once it is done. The clock jumps straight
    // to the earliest such event; the cycles an SM was skipped over are
    // exactly the cycles its tick would have taken the all-warps-asleep
    // path (one idle + one mem-wait increment, no other state change),
    // so they are credited in bulk through skipIdle() just before its
    // next real tick. Memory-bound phases spend most of their cycles
    // asleep, which makes this the difference between simulating stalls
    // and merely counting them — and unlike the old all-SMs-asleep
    // fast-forward, one busy SM no longer forces per-cycle ticks on the
    // fourteen sleeping ones.
    constexpr Cycle kNever = ~Cycle(0);
    cycles_ = 0;
    const std::size_t n = sms_.size();
    if (n == 0)
        return 0;
    // next_tick[i]: first cycle SM i must be ticked at. accounted[i]:
    // cycles below this are already reflected in SM i's stats (ticked,
    // or credited through skipIdle).
    std::vector<Cycle> next_tick(n, 0);
    std::vector<Cycle> accounted(n, 0);
    auto next_tick_of = [&](const Sm &sm, Cycle now) -> Cycle {
        if (!sm.l1d().tickIdle())
            return now + 1;   // Deferred L1D work runs cycle by cycle.
        if (sm.done())
            return kNever;
        return std::max(now + 1, sm.sleepUntil());
    };

    std::size_t done_count = 0;
    for (const auto &sm : sms_)
        done_count += sm->done();

    Cycle now = 0;
    while (now < config_.maxCycles) {
        // Tick the SMs due at `now` in index order, preserving the
        // shared memory hierarchy's arbitration order under lock-step
        // ticking.
        bool dense = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (next_tick[i] > now)
                continue;
            Sm &sm = *sms_[i];
            const bool was_done = sm.done();
            // The skipped cycles are exactly the ones whose tick would
            // have taken the all-warps-asleep path (one idle + one
            // mem-wait increment, no other state change): credit them in
            // bulk.
            if (now > accounted[i] && !was_done)
                sm.skipIdle(now - accounted[i]);
            sm.tick(now);
            accounted[i] = now + 1;
            const Cycle next = next_tick_of(sm, now);
            next_tick[i] = next;
            dense |= next == now + 1;
            if (!was_done && sm.done())
                ++done_count;
        }
        cycles_ = now + 1;
        if (done_count == n)
            break;
        // Dense fast path: an SM that just executed is almost always due
        // again next cycle, and no bound can be below now + 1 — skip the
        // min reduction outright. The reduction runs only when the GPU
        // actually goes quiet, where its cost is amortised over the
        // whole skipped idle window.
        if (dense) {
            ++now;
            continue;
        }
        Cycle next_now = next_tick[0];
        for (std::size_t i = 1; i < n; ++i)
            next_now = std::min(next_now, next_tick[i]);
        if (next_now == kNever)
            break;
        now = next_now;
    }

    if (now >= config_.maxCycles) {
        // The next event lies past the safety cap: account the idle
        // window up to the cap and stop there.
        for (std::size_t i = 0; i < n; ++i) {
            if (!sms_[i]->done() && config_.maxCycles > accounted[i])
                sms_[i]->skipIdle(config_.maxCycles - accounted[i]);
        }
        cycles_ = config_.maxCycles;
    }
    if (cycles_ >= config_.maxCycles)
        fuse_warn("simulation hit the %llu-cycle safety cap",
                  static_cast<unsigned long long>(config_.maxCycles));
    // Warps holding a partially issued instruction still carry batched
    // transaction counts; drain them so stats are exact for every reader
    // downstream of run().
    for (const auto &sm : sms_)
        sm->flushIssueStats();
    return cycles_;
}

double
Gpu::ipc() const
{
    if (cycles_ == 0)
        return 0.0;
    double total = 0.0;
    for (const auto &sm : sms_)
        total += static_cast<double>(sm->instructionsIssued());
    return total / static_cast<double>(cycles_) / sms_.size();
}

std::uint64_t
Gpu::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->instructionsIssued();
    return total;
}

double
Gpu::l1dMissRate() const
{
    double hits = 0.0;
    double misses = 0.0;
    for (const auto &sm : sms_) {
        const StatGroup &s = sm->l1d().stats();
        hits += s.get("hits");
        misses += s.get("misses") + s.get("bypasses");
    }
    const double total = hits + misses;
    return total > 0 ? misses / total : 0.0;
}

double
Gpu::sumL1dStat(const std::string &name) const
{
    double total = 0.0;
    for (const auto &sm : sms_)
        total += sm->l1d().stats().get(name);
    return total;
}

double
Gpu::sumSmStat(const std::string &name) const
{
    double total = 0.0;
    for (const auto &sm : sms_)
        total += sm->stats().get(name);
    return total;
}

} // namespace fuse
