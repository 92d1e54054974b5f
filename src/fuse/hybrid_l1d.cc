#include "fuse/hybrid_l1d.hh"

#include <algorithm>

namespace fuse
{

HybridL1D::HybridL1D(L1DKind kind, const L1DParams &params,
                     MemoryHierarchy &hierarchy, SmId sm)
    : L1DCache("l1d.hybrid", hierarchy, params.mshrEntries, sm),
      kind_(kind),
      nonBlocking_(kind != L1DKind::Hybrid),
      approxFullAssoc_(kind == L1DKind::FaFuse || kind == L1DKind::DyFuse),
      usePredictor_(kind == L1DKind::DyFuse),
      sram_(makeSramBankConfig(params.hybridSramBytes(), params.sramWays),
            "l1d.hybrid.sram"),
      stt_(makeSttBankConfig(params.hybridSttBytes(), params.sttWays,
                             approxFullAssoc_),
           "l1d.hybrid.stt"),
      tagQueue_(params.tagQueueEntries, stats_),
      swapBuffer_(params.swapBufferEntries, stats_),
      predictor_(params.predictor)
{
    if (approxFullAssoc_) {
        approx_ = std::make_unique<AssocApprox>(params.approx,
                                                stt_.tags().numLines());
    }
    // tick() only drains the tag queue of the non-blocking kinds.
    if (nonBlocking_)
        deferred_ = &tagQueue_;
    statStallTagSearch_ = &stats_.scalar("stall_tag_search");
    statMigrationsSramToStt_ = &stats_.scalar("migrations_sram_to_stt");
    statMigrationsSttToSram_ = &stats_.scalar("migrations_stt_to_sram");
    statMigrationsDrained_ = &stats_.scalar("migrations_drained");
    statWoroEvictions_ = &stats_.scalar("woro_evictions_to_l2");
    statStallStt_ = &stats_.scalar("stall_stt");
    statSramHits_ = &stats_.scalar("sram_hits");
    statSttReadHits_ = &stats_.scalar("stt_read_hits");
    statSttWriteHits_ = &stats_.scalar("stt_write_hits");
    statSttQueuedReads_ = &stats_.scalar("stt_queued_reads");
    statSwapBufferHits_ = &stats_.scalar("swap_buffer_hits");
}

void
HybridL1D::evictToL2(const CacheLine &line, Cycle now)
{
    recordLineOutcome(line);
    writeBack(line, now);
}

void
HybridL1D::recordLineOutcome(const CacheLine &line)
{
    if (usePredictor_ && line.hasPrediction)
        predictor_.recordOutcome(line.predictedLevel, line.writeCount,
                                 line.readCount);
}

void
HybridL1D::installInStt(const CacheLine &line, Cycle now,
                        CacheBank::Port port)
{
    Cycle done = 0;
    CacheLine *filled = nullptr;
    auto stt_evicted = stt_.fill(line.tag, AccessType::Read, now, &done,
                                 &filled, port);
    if (filled) {
        filled->dirty = line.dirty;
        filled->writeCount = line.writeCount;
        filled->readCount = line.readCount;
        filled->predictedLevel = line.predictedLevel;
        filled->hasPrediction = line.hasPrediction;
    }
    if (approx_)
        approx_->insert(line.tag);
    if (stt_evicted) {
        if (approx_)
            approx_->remove(stt_evicted->line.tag);
        evictToL2(stt_evicted->line, now);
    }
}

void
HybridL1D::migrateToStt(const CacheLine &victim, Cycle now)
{
    ++(*statMigrationsSramToStt_);
    if (!nonBlocking_) {
        // Plain Hybrid: the migration is a synchronous STT-MRAM write on
        // the demand port — the whole L1D blocks behind it (the paper's
        // motivation for the swap buffer + tag queue).
        installInStt(victim, now, CacheBank::Port::Demand);
        return;
    }

    // FUSE path: park the line in the swap buffer and queue an "F"
    // migration command; the drain happens in tick() when the bank frees.
    // The victim is already out of the SRAM tag array (and thus out of
    // the bank's presence summary — fillAt removed both in one step), so
    // while parked it is serviced by the snoop path, never by an SRAM
    // tag search: the summary needs no transition here to stay exact.
    swapBuffer_.push(victim);
    tagQueue_.push({TagCommand::Migrate, victim.tag});
}

void
HybridL1D::flushTagQueue()
{
    tagQueue_.flush();
    // Re-queue migrations for lines still parked in the swap buffer: their
    // payload survives the flush, only the meta entries were dropped.
    // Every parked line had its own entry, so they all fit again.
    for (const Addr line : swapBuffer_.residents())
        tagQueue_.push({TagCommand::Migrate, line});
}

L1DResult
HybridL1D::sttHit(const MemRequest &req, Cycle now,
                  const TagArray::Probe &stt_probe,
                  const TagArray::Probe &sram_probe,
                  std::uint32_t stt_partition)
{
    const Addr line = req.line();

    if (!req.isWrite()) {
        // Read hit on STT-MRAM: serve at read latency once the bank frees.
        Cycle done = 0;
        stt_.accessAt(stt_probe, AccessType::Read, now, &done);
        countHit(req);
        ++(*statSttReadHits_);
        return {L1DResult::Kind::Hit, done};
    }

    // Write hit on STT-MRAM data: a misprediction (WM block placed in the
    // read-oriented bank).
    ++(*statSttWriteHits_);
    if (usePredictor_) {
        // Dy-FUSE: migrate the block to SRAM right away, invalidate the
        // STT copy, and serve the write from SRAM (§III-A). The payload
        // write can't wait behind meta-only queue entries: flush.
        // (The tag-queue flush touches neither bank's tag array, so the
        // probes resolved at the top of access() are still current.)
        if (!tagQueue_.empty())
            flushTagQueue();
        auto moved = stt_.invalidateAt(stt_probe);
        if (approx_)
            approx_->removeAt(line, stt_partition);
        Cycle done = 0;
        CacheLine *filled = nullptr;
        auto victim = sram_.fillAt(sram_probe, line, AccessType::Write,
                                   now, &done, &filled);
        if (filled) {
            if (moved) {
                filled->readCount += moved->readCount;
                filled->writeCount += moved->writeCount;
                filled->predictedLevel = moved->predictedLevel;
                filled->hasPrediction = moved->hasPrediction;
            }
            filled->dirty = true;
        }
        if (victim) {
            if (migrationBlocked()) {
                // No swap-buffer slot or queue entry to park the SRAM
                // victim in: it leaves the L1D instead, and the access
                // does not wait.
                evictToL2(victim->line, now);
            } else {
                migrateToStt(victim->line, now);
            }
        }
        ++(*statMigrationsSttToSram_);
        countHit(req);
        return {L1DResult::Kind::Hit, done + 1};
    }

    // Base-FUSE / FA-FUSE / Hybrid: write the STT array in place. The tag
    // queue (if any) must flush first — it cannot hold the 128B payload.
    // (flushTagQueue re-queues the Migrate commands of lines still parked
    // in the swap buffer, or they would be stranded there forever.)
    if (nonBlocking_ && !tagQueue_.empty())
        flushTagQueue();
    Cycle done = 0;
    stt_.accessAt(stt_probe, AccessType::Write, now, &done);
    countHit(req);
    return {L1DResult::Kind::Hit, done};
}

void
HybridL1D::fillSram(const MemRequest &req, Cycle now,
                    const TagArray::Probe &sram_probe)
{
    const Addr line = req.line();
    Cycle done = 0;
    CacheLine *filled = nullptr;
    auto victim = sram_.fillAt(sram_probe, line, req.type, now, &done,
                               &filled);
    if (filled && usePredictor_) {
        filled->predictedLevel = predictor_.classify(req.pc);
        filled->hasPrediction = true;
    }
    if (!victim)
        return;

    // SRAM eviction: the arbitrator consults the predictor — WORO victims
    // go straight to L2; everything else migrates to STT-MRAM.
    if (usePredictor_
        && victim->line.hasPrediction
        && victim->line.predictedLevel == ReadLevel::WORO) {
        evictToL2(victim->line, now);
        ++(*statWoroEvictions_);
        return;
    }
    migrateToStt(victim->line, now);
}

void
HybridL1D::fillStt(const MemRequest &req, Cycle now,
                   const TagArray::Probe &stt_probe,
                   std::uint32_t stt_partition)
{
    const Addr line = req.line();
    if (nonBlocking_)
        tagQueue_.push({TagCommand::Fill, line});
    Cycle done = 0;
    CacheLine *filled = nullptr;
    auto victim = stt_.fillAt(stt_probe, line, req.type, now, &done,
                              &filled);
    if (filled && usePredictor_) {
        filled->predictedLevel = predictor_.classify(req.pc);
        filled->hasPrediction = true;
    }
    if (approx_)
        approx_->insertAt(line, stt_partition);
    if (victim) {
        if (approx_)
            approx_->remove(victim->line.tag);
        evictToL2(victim->line, now);
    }
}

L1DResult
HybridL1D::handleMiss(const MemRequest &req, Cycle now,
                      const TagArray::Probe &sram_probe,
                      const TagArray::Probe &stt_probe,
                      std::uint32_t stt_partition)
{
    const Addr line = req.line();

    // Placement decision (Fig. 9): with the read-level predictor, WM data
    // goes to SRAM, WORM/neutral to STT-MRAM, WORO bypasses the L1D.
    // With the approximated fully-associative STT bank but no predictor
    // (FA-FUSE), read fills route straight to the big bank (the paper's
    // MSHR destination bits; fills here are applied at miss time) and
    // write fills to SRAM. Without either feature
    // (Hybrid/Base-FUSE), everything fills SRAM first and the STT bank is
    // a victim buffer — the strawman organisation §III-A measures.
    BankId destination = BankId::Sram;
    if (usePredictor_) {
        switch (predictor_.classify(req.pc)) {
          case ReadLevel::WM:
            destination = BankId::Sram;
            break;
          case ReadLevel::WORM:
          case ReadLevel::ReadIntensive:
            destination = BankId::SttMram;
            break;
          case ReadLevel::WORO:
            destination = BankId::Bypass;
            break;
        }
    } else if (approxFullAssoc_) {
        destination = req.isWrite() ? BankId::Sram : BankId::SttMram;
    }

    if (destination == BankId::Bypass)
        return bypass(req, now);

    // Structural checks first, so a stalled access retries without having
    // already booked off-chip bandwidth: MSHR space, and (for STT fills
    // under the non-blocking design) a tag-queue slot.
    if (auto stall = mshrFullStall(now))
        return *stall;
    if (destination == BankId::Sram && nonBlocking_ && migrationBlocked()) {
        // The fill may evict an SRAM line whose migration needs a swap
        // buffer slot and a tag-queue entry; real hardware holds the fill
        // until the drain frees them.
        statStallStt_->add(
            std::max<Cycle>(stt_.fillBusyUntil(), now + 1) - now);
        return {L1DResult::Kind::Stall,
                std::max(now + 1, stt_.fillBusyUntil())};
    }
    if (destination == BankId::SttMram && nonBlocking_
        && tagQueue_.full()) {
        statStallStt_->add(std::max<Cycle>(stt_.busyUntil(), now + 1)
                           - now);
        return {L1DResult::Kind::Stall,
                std::max(now + 1, stt_.busyUntil())};
    }

    // The off-chip issue and MSHR allocation touch no bank tag array, so
    // the probes resolved at the top of access() still describe the fill
    // target.
    const Cycle ready = issueMiss(req, line, now);
    if (destination == BankId::Sram)
        fillSram(req, now, sram_probe);
    else
        fillStt(req, now, stt_probe, stt_partition);
    return {L1DResult::Kind::Miss, ready};
}

L1DResult
HybridL1D::access(const MemRequest &req, Cycle now)
{
    mshr_->retireReady(now);
    // Re-issued (stalled) transactions are already latched in the LSU and
    // must not re-train the sampler — they would fabricate reuse.
    if (usePredictor_ && !req.retry)
        predictor_.observe(req);

    const Addr line = req.line();

    // Plain Hybrid blocks the whole L1D while an STT-MRAM write is in
    // flight (§V: "any write on STT-MRAM will result in a long L1D stall").
    if (!nonBlocking_ && stt_.busy(now)) {
        // The whole L1D blocks until the in-flight MTJ write finishes.
        statStallStt_->add(stt_.busyUntil() - now);
        return {L1DResult::Kind::Stall, stt_.busyUntil()};
    }

    if (auto merged = mergeInFlight(req, line, now))
        return *merged;

    // SRAM tag search runs in parallel with the STT side; an SRAM hit
    // terminates the STT search (arbitration, Fig. 9). This lookup is
    // the request's one and only SRAM residency resolution: the probe
    // also serves the fill/migration handlers downstream. The bank's
    // presence summary (cache/presence.hh) may elide the tag search on
    // a definite miss — safe precisely because every SRAM membership
    // transition of this organisation goes through sram_.fillAt /
    // invalidateAt (swap-buffer parks happen on lines fillAt already
    // evicted), so the summary is exact and a negative is authoritative.
    // The swap-buffer snoop below still runs on elided misses: parked
    // lines are outside the tag array by construction, summary or not.
    const TagArray::Probe sram_probe = sram_.lookup(line);
    Cycle done = 0;
    if (sram_.accessAt(sram_probe, req.type, now, &done)) {
        countHit(req);
        ++(*statSramHits_);
        return {L1DResult::Kind::Hit, done};
    }

    // Swap-buffer snoop: a line mid-migration is immediately readable.
    if (CacheLine *parked = swapBuffer_.find(line)) {
        countHit(req);
        ++(*statSwapBufferHits_);
        if (req.isWrite()) {
            parked->dirty = true;
            ++parked->writeCount;
        } else {
            ++parked->readCount;
        }
        return {L1DResult::Kind::Hit, now + 1};
    }

    // STT-MRAM side: at most one residency resolution. With the
    // approximation logic the NVM-CBF test runs first, exactly as the
    // hardware senses it: a negative test proves absence (CBF counters
    // saturate rather than overflow, so the filter never produces a
    // false negative), and the tag-array lookup is skipped outright on
    // definite misses — only the set index survives into the miss
    // probe for the fill path. Set-associative STT banks resolve
    // residency directly. The search result carries the CBF partition
    // so the fill path reuses it.
    TagArray::Probe stt_probe;
    CacheLine *stt_line = nullptr;
    TagSearchResult search;
    if (approx_) {
        const AssocApprox::CbfProbe cbf = approx_->test(line);
        if (cbf.positive) {
            stt_probe = stt_.lookup(line);
            stt_line = stt_.peekAt(stt_probe);
        } else {
            stt_probe.set = stt_.tags().setIndex(line);
        }
        search = approx_->finish(cbf);
        if (search.cycles > 1) {
            // Serialized polling beyond the CBF test cycle is the
            // tag-search overhead Fig. 15 plots; the tag queue hides it
            // from the SM pipeline, but the cycles still occupy the
            // search circuit.
            statStallTagSearch_->add(search.cycles - 1);
        }
    } else {
        // Set-associative bank: direct resolution, trivial 1-cycle
        // search (the default TagSearchResult).
        stt_probe = stt_.lookup(line);
        stt_line = stt_.peekAt(stt_probe);
    }

    if (stt_line) {
        if (nonBlocking_ && stt_.busy(now)) {
            // The tag queue keeps the pipeline moving: enqueue the read
            // and promise data once the bank frees (+ search + read).
            if (req.isWrite()) {
                // Payload writes can't wait in the meta-only queue: flush
                // and handle synchronously (the sttHit path).
                return sttHit(req, now, stt_probe, sram_probe,
                              search.partition);
            }
            if (tagQueue_.full()) {
                statStallStt_->add(
                    std::max<Cycle>(stt_.busyUntil(), now + 1) - now);
                return {L1DResult::Kind::Stall,
                        std::max(now + 1, stt_.busyUntil())};
            }
            tagQueue_.push({TagCommand::Read, line});
            Cycle ready = stt_.busyUntil() + search.cycles
                          + stt_.config().readLatency;
            ++stt_line->readCount;
            countHit(req);
            ++(*statSttQueuedReads_);
            return {L1DResult::Kind::Hit, ready};
        }
        L1DResult result = sttHit(req, now, stt_probe, sram_probe,
                                  search.partition);
        result.readyAt += search.cycles - 1;  // serialized search first.
        return result;
    }

    return handleMiss(req, now, sram_probe, stt_probe, search.partition);
}

void
HybridL1D::tick(Cycle now)
{
    // Drain the tag queue head when the STT bank is free. Reads complete
    // by themselves (their ready time was promised at enqueue); migrations
    // perform the deferred array write and release the swap buffer.
    if (!nonBlocking_)
        return;
    const TagQueueEntry *head = tagQueue_.front();
    if (!head)
        return;
    if (head->command == TagCommand::Migrate && stt_.fillBusy(now))
        return;

    switch (head->command) {
      case TagCommand::Read:
      case TagCommand::Fill:
        tagQueue_.pop();
        break;
      case TagCommand::Migrate: {
        Addr line = head->lineAddr;
        tagQueue_.pop();
        auto parked = swapBuffer_.release(line);
        if (!parked)
            break;  // Flushed or already superseded.
        installInStt(*parked, now, CacheBank::Port::Fill);
        ++(*statMigrationsDrained_);
        break;
      }
    }
}

} // namespace fuse
