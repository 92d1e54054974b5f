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
#include "gpu/coalescer.hh"
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

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Keep ticking from cycle @p now through the cycles that touch
     * nothing outside this SM — compute issues and sleeps — and return
     * the first cycle that does, or that ends the run of private cycles:
     *  - a memory transaction (the warp picked for it is kept, and the
     *    tick() of that cycle issues it);
     *  - pending L1D work (the deferred work runs through tick());
     *  - the cycle after the SM retired its budget;
     *  - @p limit.
     * Every cycle before the returned one is ticked or credited idle.
     * The GPU calls this after each tick(); other SMs' ticks in the
     * skipped cycles cannot affect this SM, or it them.
     */
    Cycle tickPrivate(Cycle now, Cycle limit);

    /** All warps retired their share of the instruction budget. */
    bool done() const { return instructionsIssued_ >= config_.instructionBudget; }

    /**
     * Flush batched issue counters into the stat group. The issue path
     * counts compute instructions in one SM-local counter and each
     * instruction's l1d_transactions / l1d_transactions_missed in its
     * warp, flushing the latter in one add at instruction exit; warps
     * holding a partially issued instruction when the run ends still
     * carry unflushed counts, so Gpu::run() calls this before returning.
     * Idempotent (counters drain on flush) — stats are exact at every
     * external observation point, i.e. after run() returns.
     */
    void flushIssueStats()
    {
        statCompute_->add(uncountedCompute_);
        uncountedCompute_ = 0;
        for (WarpContext &warp : warps_)
            flushWarpTransactions(warp);
    }

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
        /** Decoded-instruction queue: one nextBatch() + coalesceBatch()
         *  refill hands the issue path kCapacity instructions, keeping
         *  the generator and coalescer off the per-cycle path. */
        InstructionBatch batch;
        std::uint32_t cur = 0;      ///< Batch slot of the in-flight instr.
        /** Next transaction to issue — absolute index into batch.addrs. */
        std::uint32_t nextTransaction = 0;
        Cycle maxFillReady = 0;     ///< Latest load-data arrival.
        bool stalledTransaction = false;  ///< Current txn is a retry.
        /** Transactions issued (and missed) since the last stat flush:
         *  the per-transaction increment cluster lands in these warp-
         *  local counters and drains in one Scalar add at instruction
         *  exit (or flushIssueStats at end of run). */
        std::uint32_t uncountedTransactions = 0;
        std::uint32_t uncountedMissed = 0;
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
     * when its next step is a memory transaction (popInstructions() has
     * then made that instruction pending).
     */
    bool issueCompute(std::uint32_t w)
    {
        if (!credits_[w] && !popInstructions(w))
            return false;
        --credits_[w];
        ++instructionsIssued_;
        ++uncountedCompute_;
        // It can issue again next cycle: it keeps its ready bit.
        scheduler_.issued(w);
        return true;
    }

    /**
     * Pop warp @p w's next instructions (its credit ran out), refilling
     * its batch when it is dry. The run of compute instructions at the
     * batch head becomes the warp's credit (true); a memory instruction
     * at the head becomes its pending instruction (false). False too
     * while a memory instruction is pending.
     */
    bool popInstructions(std::uint32_t w);

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

    /** Drain @p warp's batched transaction counters into the group. */
    void flushWarpTransactions(WarpContext &warp)
    {
        if (warp.uncountedTransactions) {
            statTransactions_->add(warp.uncountedTransactions);
            warp.uncountedTransactions = 0;
        }
        if (warp.uncountedMissed) {
            statTransactionsMissed_->add(warp.uncountedMissed);
            warp.uncountedMissed = 0;
        }
    }

    SmId id_;
    SmConfig config_;
    std::unique_ptr<L1DCache> l1d_;
    std::unique_ptr<KernelGenerator> kernel_;
    /** Declared before coalescer_, whose constructor caches stat handles
     *  out of this group (member construction order matters here). */
    StatGroup stats_;
    Coalescer coalescer_;
    /** Owns warp readiness: the issue path puts a warp to sleep until
     *  the cycle it can issue again (a warp due back next cycle stays
     *  ready), and pick() asks it for the round-robin choice from a
     *  ready bitmap instead of scanning a readyAt array each cycle. */
    WarpScheduler scheduler_;
    std::vector<WarpContext> warps_;
    /** Per-warp compute credit: the popped compute instructions at the
     *  head of the warp's batch not yet issued (at most one batch). */
    std::vector<std::uint8_t> credits_;
    static_assert(InstructionBatch::kCapacity <= 255,
                  "a compute credit holds at most one batch");
    std::uint64_t instructionsIssued_ = 0;
    /** Compute instructions issued since the last flushIssueStats(). */
    std::uint64_t uncountedCompute_ = 0;
    /** The warp tickPrivate() picked for cycle pickedAt_, whose next
     *  step is a memory transaction, left for that cycle's tick(). */
    std::uint32_t pickedWarp_ = 0;
    Cycle pickedAt_ = ~Cycle(0);
    /** No warp becomes ready before this cycle (idle fast path). */
    Cycle sleepUntil_ = 0;
    /** The L1D has deferred work (tag-queue drain): tick it. Set when
     *  an access leaves the L1D not tick-idle, cleared when it reports
     *  tick-idle — skips the virtual tick() call on the (dominant) idle
     *  cycles, and lets tickPrivate() start right after an access that
     *  left no work. */
    bool l1dTickPending_ = false;

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
};

} // namespace fuse

#endif // FUSE_GPU_SM_HH
