#include "gpu/sm.hh"

#include <algorithm>

namespace fuse
{

Sm::Sm(SmId id, const SmConfig &config, std::unique_ptr<L1DCache> l1d,
       std::unique_ptr<KernelGenerator> kernel)
    : id_(id), config_(config), l1d_(std::move(l1d)),
      kernel_(std::move(kernel)),
      stats_("sm" + std::to_string(id)),
      coalescer_(&stats_),
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
}

bool
Sm::popInstructions(std::uint32_t w)
{
    WarpContext &warp = warps_[w];
    if (warp.hasPending)
        return false;
    InstructionBatch &batch = warp.batch;
    // Refill the warp's batch from the generator + coalescer when it
    // runs dry: one refill hands the issue path kCapacity pre-coalesced
    // instructions.
    if (batch.exhausted()) {
        // Clamp decode-ahead to the SM's remaining budget so the run's
        // tail generates no instruction nobody will issue. (Popped but
        // unissued instructions make this bound slightly loose;
        // exactness comes from counting at the issue, the bound only
        // trims generator work.)
        kernel_->nextBatch(w, batch,
                           config_.instructionBudget - instructionsIssued_);
        coalescer_.coalesceBatch(batch);
    }
    std::uint32_t end = batch.consumed;
    while (end < batch.size && !batch.instr[end].isMem)
        ++end;
    if (end > batch.consumed) {
        credits_[w] = static_cast<std::uint8_t>(end - batch.consumed);
        batch.consumed = end;
        return true;
    }

    warp.cur = batch.consumed++;
    warp.hasPending = true;
    const InstructionBatch::Decoded &popped = batch.instr[warp.cur];
    warp.nextTransaction = popped.txBegin;
    warp.maxFillReady = 0;
    // Coalesce statistics count at consumption, not at batch refill:
    // pre-decoded but never-issued instructions must stay invisible.
    coalescer_.noteConsumed(popped.lanes, popped.txEnd - popped.txBegin);
    return false;
}

void
Sm::issueTransaction(std::uint32_t w, Cycle now)
{
    WarpContext &warp = warps_[w];
    const InstructionBatch &batch = warp.batch;
    const InstructionBatch::Decoded &instr = batch.instr[warp.cur];

    // The LSU issues one coalesced transaction per cycle; an L1D
    // structural stall blocks the LSU for this cycle (the paper's L1D
    // stall).
    MemRequest req;
    req.addr = batch.addrs[warp.nextTransaction];
    req.pc = instr.pc;
    req.smId = id_;
    req.warpId = w;
    req.type = instr.type;
    req.retry = warp.stalledTransaction;

    L1DResult result = l1d_->access(req, now);
    l1dTickPending_ = !l1d_->tickIdle();
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
    // Batched into the warp context; one Scalar add at instruction exit.
    ++warp.uncountedTransactions;
    if (result.kind == L1DResult::Kind::Miss)
        ++warp.uncountedMissed;
    ++warp.nextTransaction;

    if (warp.nextTransaction < instr.txEnd) {
        // More transactions to issue next cycle.
        wake(w, now, now + 1);
        return;
    }

    // Instruction complete. Loads block the warp until the data arrives
    // (in-order pipeline, the consumer is the next instruction); stores
    // are posted — the warp proceeds once the requests are accepted.
    ++instructionsIssued_;
    ++(*statMemInstr_);
    flushWarpTransactions(warp);
    warp.hasPending = false;
    if (instr.type == AccessType::Read) {
        wake(w, now, std::max(now + 1, warp.maxFillReady));
        if (warp.maxFillReady > now + 1) {
            statLoadBlock_->add(warp.maxFillReady - (now + 1));
        }
    } else {
        wake(w, now, now + 1);
    }
}

void
Sm::tick(Cycle now)
{
    // Tick the L1D only while it has deferred work; the flag spares the
    // virtual call on the (dominant) idle cycles.
    if (l1dTickPending_) {
        l1d_->tick(now);
        l1dTickPending_ = !l1d_->tickIdle();
    }
    if (pickedAt_ == now) {
        issueTransaction(pickedWarp_, now);
        return;
    }
    if (done())
        return;

    // Idle fast path: every warp is blocked until sleepUntil_, so skip
    // the pick.
    if (sleepUntil_ > now) {
        idle(1);
        return;
    }
    const std::uint32_t w = pick(now);
    if (w != WarpScheduler::kNone && !issueCompute(w))
        issueTransaction(w, now);
}

Cycle
Sm::tickPrivate(Cycle now, Cycle limit)
{
    // Only an access leaves L1D work behind, and no private cycle makes
    // one.
    if (l1dTickPending_)
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
