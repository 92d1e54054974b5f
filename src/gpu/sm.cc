#include "gpu/sm.hh"

#include <algorithm>

#include "prof/prof.hh"

namespace fuse
{

Sm::Sm(SmId id, const SmConfig &config, std::unique_ptr<L1DCache> l1d,
       std::unique_ptr<KernelGenerator> kernel)
    : id_(id), config_(config), l1d_(std::move(l1d)),
      kernel_(std::move(kernel)),
      stats_("sm" + std::to_string(id)),
      coalescer_(&stats_),
      scheduler_(config.warpsPerSm),
      warps_(config.warpsPerSm)
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

void
Sm::issueWarp(std::uint32_t w, Cycle now)
{
    WarpContext &warp = warps_[w];
    InstructionBatch &batch = warp.batch;

    if (!warp.hasPending) {
        // Pop the next decoded instruction, refilling the warp's batch
        // from the generator + coalescer when it runs dry: one refill
        // hands the issue path kCapacity pre-coalesced instructions.
        if (batch.exhausted()) {
            // Clamp decode-ahead to the SM's remaining budget so the
            // run's tail generates no instruction nobody will issue.
            // (In-flight popped instructions of other warps make this
            // bound slightly loose; exactness comes from counting at
            // the pop, the bound only trims generator work.)
            kernel_->nextBatch(w, batch,
                               config_.instructionBudget
                                   - instructionsIssued_);
            coalescer_.coalesceBatch(batch);
        }
        // One count per begun instruction, independent of how far the
        // batch frontend decodes ahead.
        FUSE_PROF_COUNT(workload, instructions);
        warp.cur = batch.consumed++;
        warp.hasPending = true;
        const InstructionBatch::Decoded &popped = batch.instr[warp.cur];
        warp.nextTransaction = popped.txBegin;
        warp.maxFillReady = 0;
        // Coalesce statistics count at consumption, not at batch refill:
        // pre-decoded but never-issued instructions must stay invisible.
        if (popped.isMem)
            coalescer_.noteConsumed(popped.lanes,
                                    popped.txEnd - popped.txBegin);
    }

    const InstructionBatch::Decoded &instr = batch.instr[warp.cur];
    if (!instr.isMem) {
        ++instructionsIssued_;
        ++(*statCompute_);
        warp.hasPending = false;
        scheduler_.onWake(w, now + 1);
        scheduler_.issued(w);
        return;
    }

    // Memory instruction: the LSU issues one coalesced transaction per
    // cycle; an L1D structural stall blocks the LSU for this cycle (the
    // paper's L1D stall).
    MemRequest req;
    req.addr = batch.addrs[warp.nextTransaction];
    req.pc = instr.pc;
    req.smId = id_;
    req.warpId = w;
    req.type = instr.type;
    req.retry = warp.stalledTransaction;

    L1DResult result = l1d_->access(req, now);
    l1dTickPending_ = true;
    if (result.kind == L1DResult::Kind::Stall) {
        // The warp parks at this transaction until the structural hazard
        // clears; the wait counts as L1D stall cycles.
        const Cycle retry = std::max(now + 1, result.readyAt);
        statL1dStall_->add(retry - now);
        scheduler_.onWake(w, retry);
        warp.stalledTransaction = true;
        scheduler_.issued(w);
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
        scheduler_.onWake(w, now + 1);
        scheduler_.issued(w);
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
        scheduler_.onWake(w, std::max(now + 1, warp.maxFillReady));
        if (warp.maxFillReady > now + 1) {
            statLoadBlock_->add(warp.maxFillReady - (now + 1));
        }
    } else {
        scheduler_.onWake(w, now + 1);
    }
    scheduler_.issued(w);
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
    if (done())
        return;

    // Idle fast path: every warp is blocked until sleepUntil_, so skip
    // the ready scan (it dominates simulation cost otherwise).
    if (sleepUntil_ > now) {
        ++(*statIdle_);
        ++(*statMemWait_);
        return;
    }

    Cycle min_ready = ~Cycle(0);
    std::uint32_t w = scheduler_.pickReady(now, &min_ready);
    if (w == WarpScheduler::kNone) {
        sleepUntil_ = min_ready;
        ++(*statIdle_);
        ++(*statMemWait_);
        return;
    }
    issueWarp(w, now);
}

} // namespace fuse
