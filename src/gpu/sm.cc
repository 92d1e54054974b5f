#include "gpu/sm.hh"

#include <algorithm>

#include "gpu/coalescer.hh"

namespace fuse
{

Sm::Sm(SmId id, const SmConfig &config, std::unique_ptr<L1DCache> l1d,
       std::unique_ptr<KernelGenerator> kernel)
    : id_(id), config_(config), l1d_(std::move(l1d)),
      kernel_(std::move(kernel)),
      stats_("sm" + std::to_string(id)),
      scheduler_(config.warpsPerSm),
      warps_(config.warpsPerSm), credits_(config.warpsPerSm, 0)
{
    statIdle_ = &stats_.scalar("idle_cycles");
    statMemWait_ = &stats_.scalar("mem_wait_cycles");
    statL1dStall_ = &stats_.scalar("l1d_stall_cycles");
    statCompute_ = &stats_.scalar("compute_instructions");
    statMemInstr_ = &stats_.scalar("mem_instructions");
    statTransactions_ = &stats_.scalar("l1d_transactions");
    statTransactionsMissed_ = &stats_.scalar("l1d_transactions_missed");
    statLoadBlock_ = &stats_.scalar("load_block_cycles");
    statCoalesceInstr_ = &stats_.scalar("coalesce_instructions");
    statCoalesceTx_ = &stats_.scalar("coalesce_transactions");
    statCoalesceMerged_ = &stats_.scalar("coalesce_lanes_merged");
    for (std::uint32_t w = 0; w < config.warpsPerSm; ++w)
        decodeNext(w);
}

void
Sm::decodeNext(std::uint32_t w)
{
    WarpContext &warp = warps_[w];
    credits_[w] = kernel_->nextMemory(w, warp.instr);
    std::vector<Addr> &addrs = warp.instr.addrs;
    warp.lanes = static_cast<std::uint32_t>(addrs.size());
    addrs.resize(Coalescer::coalesceSpan(addrs.data(), warp.lanes));
}

void
Sm::beginMemory(std::uint32_t w)
{
    WarpContext &warp = warps_[w];
    warp.hasPending = true;
    warp.nextTransaction = 0;
    warp.maxFillReady = 0;
    // Coalesce statistics count at consumption, not at decode: the
    // instruction a warp holds when the run ends must stay invisible.
    const auto transactions =
        static_cast<std::uint32_t>(warp.instr.addrs.size());
    ++(*statCoalesceInstr_);
    statCoalesceTx_->add(transactions);
    statCoalesceMerged_->add(warp.lanes - transactions);
}

void
Sm::issueTransaction(std::uint32_t w, Cycle now)
{
    WarpContext &warp = warps_[w];
    const MemInstruction &instr = warp.instr;

    // The LSU issues one coalesced transaction per cycle; an L1D
    // structural stall blocks the LSU for this cycle (the paper's L1D
    // stall).
    MemRequest req;
    req.addr = instr.addrs[warp.nextTransaction];
    req.pc = instr.pc;
    req.smId = id_;
    req.warpId = w;
    req.type = instr.type;
    req.retry = warp.stalledTransaction;

    L1DResult result = l1d_->access(req, now);
    if (result.kind == L1DResult::Kind::Stall) {
        // The warp parks at this transaction until the structural hazard
        // clears; the wait counts as L1D stall cycles.
        const Cycle retry = std::max(now + 1, result.readyAt);
        statL1dStall_->add(retry - now);
        wake(w, now, retry);
        warp.stalledTransaction = true;
        return;
    }
    warp.stalledTransaction = false;

    warp.maxFillReady = std::max(warp.maxFillReady, result.readyAt);
    ++(*statTransactions_);
    if (result.kind == L1DResult::Kind::Miss)
        ++(*statTransactionsMissed_);
    ++warp.nextTransaction;

    if (warp.nextTransaction < instr.addrs.size()) {
        // More transactions to issue next cycle.
        wake(w, now, now + 1);
        return;
    }

    // Instruction complete. Loads block the warp until the data arrives
    // (in-order pipeline, the consumer is the next instruction); stores
    // are posted — the warp proceeds once the requests are accepted.
    ++instructionsIssued_;
    ++(*statMemInstr_);
    warp.hasPending = false;
    const bool load = instr.type == AccessType::Read;
    decodeNext(w);
    if (load) {
        wake(w, now, std::max(now + 1, warp.maxFillReady));
        if (warp.maxFillReady > now + 1) {
            statLoadBlock_->add(warp.maxFillReady - (now + 1));
        }
    } else {
        wake(w, now, now + 1);
    }
}

Cycle
Sm::advance(Cycle now, Cycle limit)
{
    // Cycle now, the one that may touch the memory system. The L1D is
    // ticked only while it has deferred work.
    if (!l1d_->tickIdle())
        l1d_->tick(now);
    if (pickedAt_ == now) {
        issueTransaction(pickedWarp_, now);
    } else if (!done()) {
        // Idle fast path: every warp is blocked until sleepUntil_, so
        // skip the pick.
        if (sleepUntil_ > now) {
            idle(1);
        } else {
            const std::uint32_t w = pick(now);
            if (w != WarpScheduler::kNone && !issueCompute(w))
                issueTransaction(w, now);
        }
    }

    // The private cycles after it. Only an access or an L1D tick leaves
    // L1D work behind, and no private cycle makes one.
    ++now;
    if (!l1d_->tickIdle())
        return now;
    while (now < limit && !done()) {
        if (sleepUntil_ > now) {
            // Every warp sleeps until sleepUntil_: credit the window.
            const Cycle until = std::min(sleepUntil_, limit);
            idle(until - now);
            now = until;
            continue;
        }
        const std::uint32_t w = pick(now);
        if (w != WarpScheduler::kNone && !issueCompute(w)) {
            // A memory transaction: the cycle belongs to the GPU's clock,
            // which orders the SMs' accesses to the shared hierarchy.
            pickedWarp_ = w;
            pickedAt_ = now;
            return now;
        }
        ++now;
    }
    return now;
}

} // namespace fuse
