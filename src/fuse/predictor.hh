/**
 * @file
 * The FUSE read-level predictor (§IV-B, Fig. 11): a PC-signature-based
 * predictor made of (a) a memory-request sampler organised as a small
 * set-associative structure fed by four representative warps, and (b) a
 * prediction history table of saturating counters indexed by the PC
 * signature. The arbitration logic consults it to decide block placement
 * (SRAM vs STT-MRAM vs bypass).
 */

#ifndef FUSE_FUSE_PREDICTOR_HH
#define FUSE_FUSE_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace fuse
{

/** Predictor geometry/thresholds (Table I defaults). */
struct PredictorConfig
{
    std::uint32_t samplerSets = 4;      ///< One per representative warp.
    std::uint32_t samplerWays = 8;      ///< 8-way LRU.
    std::uint32_t historyEntries = 1024;///< Table I: 1024 entries.
    std::uint32_t signatureBits = 9;    ///< Partial PC bits.
    std::uint32_t tagBits = 15;         ///< Partial address bits.
    std::uint32_t counterBits = 4;      ///< Saturating counter width.
    std::uint32_t unusedThreshold = 14; ///< counter > th  => WORO.
    std::uint32_t counterInit = 8;      ///< Initial counter value.
    std::uint32_t sampledWarps = 4;     ///< Representative warps.
    /** Warps per SM, over which the representative warps spread. Gpu
     *  sets it from gpu.warpsPerSm; it has no spec key. */
    std::uint32_t warpsPerSm = 48;
};

/**
 * Read-level predictor. classify() is consulted on every placement
 * decision; observe() feeds the sampler with the (filtered) request stream.
 */
class ReadLevelPredictor
{
  public:
    explicit ReadLevelPredictor(const PredictorConfig &config);

    /**
     * Feed one memory request through the sampler. Only requests from the
     * representative warps update state (matching the hardware's sampling
     * filter): the first sampledWarps multiples of warpsPerSm /
     * sampledWarps. All others are ignored for free.
     */
    void observe(const MemRequest &req);

    /** Predict the read-level of the block @p pc is about to touch. */
    ReadLevel classify(Addr pc) const;

    /**
     * Accuracy bookkeeping (Fig. 16): the owner reports the block's actual
     * behaviour at eviction time together with the level predicted at fill.
     */
    void recordOutcome(ReadLevel predicted, std::uint32_t writes,
                       std::uint32_t reads);

    const PredictorConfig &config() const { return config_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** Signature of @p pc (exposed for tests). */
    std::uint32_t signatureOf(Addr pc) const;

  private:
    struct SamplerEntry
    {
        bool valid = false;
        bool used = false;          ///< "U" bit: re-referenced since fill.
        std::uint8_t lru = 0;       ///< "RP" bits.
        std::uint32_t tag = 0;      ///< Partial line-address bits.
        std::uint32_t signature = 0;///< Partial PC bits of the filler.
        bool wroteSinceFill = false;///< Saw a write hit (WM evidence).
    };

    struct HistoryEntry
    {
        std::uint8_t counter;
        bool isWrite;               ///< R/W status bit.
    };

    void samplerTouch(std::uint32_t set, std::uint32_t way);
    std::uint32_t samplerVictim(std::uint32_t set) const;

    PredictorConfig config_;
    std::vector<std::vector<SamplerEntry>> sampler_;
    std::vector<HistoryEntry> history_;
    StatGroup stats_;
    // Cached counters: observe() runs for every sampled request and
    // recordOutcome() for every evicted block.
    StatGroup::Scalar *statSampledRequests_;
    StatGroup::Scalar *statSamplerHits_;
    StatGroup::Scalar *statSamplerEvictions_;
    StatGroup::Scalar *statSamplerFills_;
    StatGroup::Scalar *statOutcomes_;
    StatGroup::Scalar *statPredTrue_;
    StatGroup::Scalar *statPredFalse_;
    StatGroup::Scalar *statPredNeutral_;
};

} // namespace fuse

#endif // FUSE_FUSE_PREDICTOR_HH
