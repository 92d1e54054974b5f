/**
 * @file
 * Streaming multiprocessor model: an in-order issue pipeline over many
 * resident warps, a load/store unit that serialises coalesced transactions
 * into the private L1D, and memory-dependence blocking (a warp cannot run
 * past an outstanding load). This is the GPGPU-Sim-shaped core the paper's
 * evaluation stands on, reduced to what the memory system can observe.
 */

#ifndef FUSE_GPU_SM_HH
#define FUSE_GPU_SM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "fuse/l1d.hh"
#include "gpu/scheduler.hh"
#include "workload/generator.hh"

namespace fuse
{

/** Per-SM runtime parameters. */
struct SmConfig
{
    std::uint32_t warpsPerSm = 48;    ///< Table I.
    /** Warp instructions this SM must retire before the kernel ends. */
    std::uint64_t instructionBudget = 200000;
};

/** One SM: warps + scheduler + LSU + private L1D. */
class Sm
{
  public:
    Sm(SmId id, const SmConfig &config, std::unique_ptr<L1DCache> l1d,
       std::unique_ptr<KernelGenerator> kernel);

    /**
     * Run cycle @p now, which the GPU clock orders against the other
     * SMs' cycles that touch the memory system, then the SM's private
     * cycles: those that touch nothing outside it — compute issues and
     * sleeps. Return the first cycle not run, which is
     *  - a memory transaction's (the warp picked for it is kept, and the
     *    next advance() issues it);
     *  - any cycle while the L1D has deferred work (a tag-queue drain
     *    runs per cycle);
     *  - the cycle after the SM retired its budget;
     *  - @p limit, or now + 1 if that is later.
     * Every cycle before the returned one is run or credited idle, and
     * every counter is exact on return. advance(now, now + 1) runs cycle
     * @p now alone, which is the lock-step clock.
     */
    Cycle advance(Cycle now, Cycle limit);

    /** All warps retired their share of the instruction budget. */
    bool done() const { return instructionsIssued_ >= config_.instructionBudget; }

    std::uint64_t instructionsIssued() const { return instructionsIssued_; }
    L1DCache &l1d() { return *l1d_; }
    const L1DCache &l1d() const { return *l1d_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    SmId id() const { return id_; }

    /** IPC over @p cycles. */
    double ipc(Cycle cycles) const
    {
        return cycles ? static_cast<double>(instructionsIssued_) / cycles
                      : 0.0;
    }

  private:
    struct WarpContext
    {
        bool hasPending = false;    ///< Mid-way through a mem instruction.
        /** The warp's next memory instruction, decoded by nextMemory()
         *  and coalesced in place (addrs holds its transactions). It
         *  becomes pending when the warp's credit runs out. */
        MemInstruction instr;
        /** Its pre-coalesce lane count, for the coalesce statistics. */
        std::uint32_t lanes = 0;
        /** Next transaction to issue — index into instr.addrs. */
        std::uint32_t nextTransaction = 0;
        Cycle maxFillReady = 0;     ///< Latest load-data arrival.
        bool stalledTransaction = false;  ///< Current txn is a retry.
    };

    /** The scheduler's pick at @p now. With no warp ready the SM
     *  sleeps until the earliest wake, and the cycle counts idle. */
    std::uint32_t pick(Cycle now)
    {
        Cycle min_ready = 0;
        const std::uint32_t w = scheduler_.pickReady(now, &min_ready);
        if (w == WarpScheduler::kNone) {
            sleepUntil_ = min_ready;
            idle(1);
        }
        return w;
    }

    /**
     * Issue warp @p w's next instruction if it is a compute instruction,
     * from the warp's credit and without touching its context. False
     * when its next step is a memory transaction (its held instruction
     * is then pending).
     */
    bool issueCompute(std::uint32_t w)
    {
        if (!credits_[w]) {
            if (!warps_[w].hasPending)
                beginMemory(w);
            return false;
        }
        --credits_[w];
        ++instructionsIssued_;
        ++(*statCompute_);
        // It can issue again next cycle: it keeps its ready bit.
        scheduler_.issued(w);
        return true;
    }

    /** Decode and coalesce warp @p w's next memory instruction; the
     *  compute instructions before it become the warp's credit. */
    void decodeNext(std::uint32_t w);

    /** Warp @p w's credit ran out: its held memory instruction becomes
     *  pending, and the coalesce counters count it. */
    void beginMemory(std::uint32_t w);

    /** Issue the next transaction of warp @p w's pending memory
     *  instruction. */
    void issueTransaction(std::uint32_t w, Cycle now);

    /** Warp @p w issued at @p now and can issue again at @p at. */
    void wake(std::uint32_t w, Cycle now, Cycle at)
    {
        // The next pick is at now + 1 at the earliest, so a warp due
        // back then keeps its ready bit; a later one sleeps.
        if (at > now + 1)
            scheduler_.onWake(w, at);
        scheduler_.issued(w);
    }

    /** Count @p cycles on which every warp slept — the one place that
     *  adds idle and mem-wait cycles. */
    void idle(Cycle cycles)
    {
        statIdle_->add(cycles);
        statMemWait_->add(cycles);
    }

    SmId id_;
    SmConfig config_;
    std::unique_ptr<L1DCache> l1d_;
    std::unique_ptr<KernelGenerator> kernel_;
    StatGroup stats_;
    /** Owns warp readiness: the issue path puts a warp to sleep until
     *  the cycle it can issue again (a warp due back next cycle stays
     *  ready), and pick() asks it for the round-robin choice from a
     *  ready bitmap instead of scanning a readyAt array each cycle. */
    WarpScheduler scheduler_;
    std::vector<WarpContext> warps_;
    /** Per-warp compute credit: the compute instructions before the
     *  warp's held memory instruction not yet issued — its whole gap,
     *  kept apart from the contexts so a compute issue touches one
     *  word. */
    std::vector<std::uint64_t> credits_;
    std::uint64_t instructionsIssued_ = 0;
    /** The warp a private cycle picked for cycle pickedAt_, whose next
     *  step is a memory transaction, left for the advance() that runs
     *  that cycle. */
    std::uint32_t pickedWarp_ = 0;
    Cycle pickedAt_ = ~Cycle(0);
    /** No warp becomes ready before this cycle (idle fast path). */
    Cycle sleepUntil_ = 0;

    // Cached references for the per-cycle hot path (StatGroup::scalar is
    // a map lookup; references stay valid for the group's lifetime).
    StatGroup::Scalar *statIdle_;
    StatGroup::Scalar *statMemWait_;
    StatGroup::Scalar *statL1dStall_;
    StatGroup::Scalar *statCompute_;
    StatGroup::Scalar *statMemInstr_;
    StatGroup::Scalar *statTransactions_;
    StatGroup::Scalar *statTransactionsMissed_;
    StatGroup::Scalar *statLoadBlock_;
    StatGroup::Scalar *statCoalesceInstr_;
    StatGroup::Scalar *statCoalesceTx_;
    StatGroup::Scalar *statCoalesceMerged_;
};

} // namespace fuse

#endif // FUSE_GPU_SM_HH
