#include "fuse/predictor.hh"

#include "common/log.hh"

namespace fuse
{

ReadLevelPredictor::ReadLevelPredictor(const PredictorConfig &config)
    : config_(config),
      sampler_(config.samplerSets,
               std::vector<SamplerEntry>(config.samplerWays)),
      history_(config.historyEntries,
               HistoryEntry{static_cast<std::uint8_t>(config.counterInit),
                            false}),
      stats_("predictor")
{
    statSampledRequests_ = &stats_.scalar("sampled_requests");
    statSamplerHits_ = &stats_.scalar("sampler_hits");
    statSamplerEvictions_ = &stats_.scalar("sampler_evictions");
    statSamplerFills_ = &stats_.scalar("sampler_fills");
    statOutcomes_ = &stats_.scalar("outcomes");
    statPredTrue_ = &stats_.scalar("pred_true");
    statPredFalse_ = &stats_.scalar("pred_false");
    statPredNeutral_ = &stats_.scalar("pred_neutral");
    if (config.samplerSets == 0 || config.samplerWays == 0)
        fuse_fatal("sampler needs nonzero geometry");
    if (config.historyEntries == 0)
        fuse_fatal("history table needs entries");
    if (config.sampledWarps == 0 || config.sampledWarps > config.warpsPerSm)
        fuse_fatal("sampler needs 1 to %u sampled warps", config.warpsPerSm);
    if (config.unusedThreshold >= (1u << config.counterBits))
        fuse_fatal("unused threshold %u exceeds counter range",
                   config.unusedThreshold);
}

std::uint32_t
ReadLevelPredictor::signatureOf(Addr pc) const
{
    // Partial PC bits, folded so nearby instructions spread across the
    // table; the low 2 bits of a PC are constant (4B instructions).
    std::uint64_t sig = (pc >> 2) ^ (pc >> (2 + config_.signatureBits));
    return static_cast<std::uint32_t>(sig % config_.historyEntries);
}

void
ReadLevelPredictor::samplerTouch(std::uint32_t set, std::uint32_t way)
{
    auto &entries = sampler_[set];
    std::uint8_t old = entries[way].lru;
    for (auto &e : entries) {
        if (e.valid && e.lru < old)
            ++e.lru;
    }
    entries[way].lru = 0;
}

std::uint32_t
ReadLevelPredictor::samplerVictim(std::uint32_t set) const
{
    const auto &entries = sampler_[set];
    std::uint32_t victim = 0;
    std::uint8_t oldest = 0;
    for (std::uint32_t w = 0; w < entries.size(); ++w) {
        if (!entries[w].valid)
            return w;
        if (entries[w].lru >= oldest) {
            oldest = entries[w].lru;
            victim = w;
        }
    }
    return victim;
}

void
ReadLevelPredictor::observe(const MemRequest &req)
{
    // Hardware samples only a handful of representative warps, spread
    // evenly over the SM's: warps of a kernel execute the same
    // instructions, so a few suffice (§IV-B).
    const std::uint32_t stride = config_.warpsPerSm / config_.sampledWarps;
    const std::uint32_t rank = req.warpId / stride;
    if (req.warpId % stride != 0 || rank >= config_.sampledWarps)
        return;
    ++(*statSampledRequests_);

    const std::uint32_t set = rank % config_.samplerSets;
    const std::uint32_t tag = static_cast<std::uint32_t>(
        req.line() & ((1u << config_.tagBits) - 1));
    const std::uint32_t sig = signatureOf(req.pc);

    auto &entries = sampler_[set];
    for (std::uint32_t w = 0; w < entries.size(); ++w) {
        auto &e = entries[w];
        if (e.valid && e.tag == tag) {
            // Sampler hit: block was re-referenced => not write-once-
            // read-once. Decrement the history counter of the *filling*
            // signature (trainer for WORM/read-intensive).
            e.used = true;
            if (req.isWrite())
                e.wroteSinceFill = true;
            auto &h = history_[e.signature];
            if (h.counter > 0)
                --h.counter;
            // A write re-reference is WM evidence: set the status bit.
            if (req.isWrite())
                h.isWrite = true;
            samplerTouch(set, w);
            ++(*statSamplerHits_);
            return;
        }
    }

    // Sampler miss: evict the LRU entry; if it was never re-used, its
    // filling signature produces dead-on-arrival blocks => increment.
    std::uint32_t victim = samplerVictim(set);
    auto &v = entries[victim];
    if (v.valid) {
        auto &h = history_[v.signature];
        if (!v.used) {
            if (h.counter < ((1u << config_.counterBits) - 1))
                ++h.counter;
        }
        // A block filled and then only read (never re-written) is
        // read-level 'R'; only write re-references flip it to 'W'.
        if (!v.wroteSinceFill && h.counter == 0)
            h.isWrite = false;
        ++(*statSamplerEvictions_);
    }
    v.valid = true;
    v.used = false;
    v.wroteSinceFill = false;
    v.tag = tag;
    v.signature = sig;
    samplerTouch(set, victim);
    ++(*statSamplerFills_);
}

ReadLevel
ReadLevelPredictor::classify(Addr pc) const
{
    const HistoryEntry &h = history_[signatureOf(pc)];
    if (h.counter > config_.unusedThreshold)
        return ReadLevel::WORO;
    if (h.counter < 1)
        return h.isWrite ? ReadLevel::WM : ReadLevel::WORM;
    // Counter in [1, threshold]: neutral zone, covers read-intensive.
    return ReadLevel::ReadIntensive;
}

void
ReadLevelPredictor::recordOutcome(ReadLevel predicted, std::uint32_t writes,
                                  std::uint32_t reads)
{
    ++(*statOutcomes_);
    const bool multi_write = writes > 1;
    const bool single_write_or_less = writes <= 1;
    switch (predicted) {
      case ReadLevel::WM:
        if (multi_write)
            ++(*statPredTrue_);
        else
            ++(*statPredFalse_);
        break;
      case ReadLevel::WORM:
      case ReadLevel::WORO:
        if (single_write_or_less)
            ++(*statPredTrue_);
        else
            ++(*statPredFalse_);
        break;
      case ReadLevel::ReadIntensive:
        // The neutral zone still drives a concrete placement (STT-MRAM,
        // read-oriented): judge it by whether the block stayed
        // read-oriented. Blocks that were never touched again are the
        // genuinely undecidable "neutral" outcomes of Fig. 16.
        if (multi_write)
            ++(*statPredFalse_);
        else if (reads >= 1)
            ++(*statPredTrue_);
        else
            ++(*statPredNeutral_);
        break;
    }
}

} // namespace fuse
