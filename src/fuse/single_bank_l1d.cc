#include "fuse/single_bank_l1d.hh"

#include <algorithm>

#include "common/log.hh"

namespace fuse
{

namespace
{

bool
sttKind(L1DKind kind)
{
    return kind == L1DKind::ByNvm || kind == L1DKind::PureNvm;
}

BankConfig
bankConfigOf(L1DKind kind, const L1DParams &params)
{
    switch (kind) {
      case L1DKind::L1Sram:
        return makeSramBankConfig(params.areaBudgetBytes,
                                  params.baselineWays);
      case L1DKind::FaSram:
        return makeSramBankConfig(
            params.areaBudgetBytes,
            std::max<std::uint32_t>(1, params.areaBudgetBytes / kLineSize));
      case L1DKind::ByNvm:
      case L1DKind::PureNvm:
        return makeSttBankConfig(params.pureNvmBytes(), params.nvmWays,
                                 /*fully_associative=*/false,
                                 ReplPolicy::LRU);
      default:
        fuse_panic("%s is not a one-bank organisation", toString(kind));
    }
}

} // namespace

SingleBankL1D::SingleBankL1D(L1DKind kind, const L1DParams &params,
                             MemoryHierarchy &hierarchy, SmId sm)
    : L1DCache(sttKind(kind) ? "l1d.nvm" : "l1d.sram", hierarchy,
               params.mshrEntries, sm),
      kind_(kind),
      bank_(bankConfigOf(kind, params),
            sttKind(kind) ? "l1d.nvm.bank" : "l1d.sram.bank")
{
    if (kind == L1DKind::ByNvm)
        predictor_.emplace(params.predictor);
}

L1DResult
SingleBankL1D::access(const MemRequest &req, Cycle now)
{
    mshr_->retireReady(now);
    // Re-issued (stalled) transactions are already latched in the LSU and
    // must not re-train the sampler — they would fabricate reuse.
    if (predictor_ && !req.retry)
        predictor_->observe(req);
    const Addr line = req.line();

    if (auto merged = mergeInFlight(req, line, now))
        return *merged;

    // The STT-MRAM bank blocks during MTJ writes: any access that arrives
    // while one is in flight stalls the L1D (no tag queue here). An SRAM
    // bank is never busy at an access.
    if (bank_.busy(now))
        return sttStall(bank_.busyUntil(), now);

    // The request's one residency resolution: the probe serves the hit
    // path and, on a miss, the eager fill below (the bypass decision and
    // off-chip issue in between do not touch the bank). SRAM banks skip
    // the tag search when their exact presence summary
    // (cache/presence.hh) proves the line absent.
    const TagArray::Probe probe = bank_.lookup(line);
    Cycle done = 0;
    if (bank_.accessAt(probe, req.type, now, &done)) {
        countHit(req);
        return {L1DResult::Kind::Hit, done};
    }

    // Dead-write bypassing (By-NVM): blocks predicted to die without
    // re-reference skip the L1D entirely, sparing an MTJ fill write.
    if (predictor_ && predictor_->classify(req.pc) == ReadLevel::WORO)
        return bypass(req, now);

    if (auto stall = mshrFullStall(now))
        return *stall;
    const Cycle ready = issueMiss(req, line, now);

    // Eager fill of the tag-array state on the fill port (an MTJ write on
    // STT-MRAM); the MSHR in-flight check above guards the data until
    // it arrives.
    auto eviction = bank_.fillAt(probe, line, req.type, now, nullptr);
    if (eviction)
        writeBack(eviction->line, now);
    return {L1DResult::Kind::Miss, ready};
}

} // namespace fuse
