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
    // cycle, each SM carries the next cycle the clock must run it at.
    // Sm::advance runs that cycle and then the cycles that touch nothing
    // outside the SM — compute issues, and sleeping until a warp wakes —
    // and hands back the first cycle that does touch the memory system:
    // a memory transaction, or deferred L1D work (tag-queue drains run
    // per cycle). Only those cycles are ordered here, SMs in index order
    // at each, which preserves the shared memory hierarchy's arbitration
    // order under lock-step ticking. The clock jumps straight to the
    // earliest one.
    constexpr Cycle kNever = ~Cycle(0);
    cycles_ = 0;
    const std::size_t n = sms_.size();
    if (n == 0)
        return 0;
    const Cycle cap = config_.maxCycles;
    // next_tick[i]: the next cycle the clock runs SM i at.
    std::vector<Cycle> next_tick(n, 0);

    std::size_t done_count = 0;
    for (const auto &sm : sms_)
        done_count += sm->done();
    // The cycle the last SM retired its budget at; a run whose SMs are
    // all done before cycle 0 still ticks once.
    Cycle last_done = 0;

    Cycle now = 0;
    while (now < cap) {
        Cycle next_now = kNever;
        for (std::size_t i = 0; i < n; ++i) {
            if (next_tick[i] == now) {
                Sm &sm = *sms_[i];
                const bool was_done = sm.done();
                Cycle next = sm.advance(now, cap);
                if (sm.done()) {
                    // advance stops on the cycle after the SM's last
                    // issue.
                    if (!was_done) {
                        ++done_count;
                        last_done = std::max(last_done, next - 1);
                    }
                    if (sm.l1d().tickIdle())
                        next = kNever;
                }
                next_tick[i] = next;
            }
            next_now = std::min(next_now, next_tick[i]);
        }
        // Once every SM is done, only the L1D work of the cycles up to
        // the last SM's finish remains.
        if (done_count == n && next_now > last_done)
            break;
        now = next_now;
    }
    cycles_ = done_count == n ? std::min(last_done + 1, cap) : cap;

    if (cycles_ >= cap)
        fuse_warn("simulation hit the %llu-cycle safety cap",
                  static_cast<unsigned long long>(cap));
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
