/**
 * @file
 * Randomized differential parity tier for the replacement engine.
 *
 * The event-driven engine in cache/replacement.hh replaced a stateless
 * "scan every way, pick the minimum timestamp" victim search. Every
 * figure in the paper depends on the two making *identical* choices, so
 * this test keeps the historical scan logic alive as a reference
 * implementation and drives both through ~10^5 mixed fill/hit/invalidate
 * sequences per (policy x geometry) cell — including the 512-way
 * approximated-FA STT bank shape and same-cycle touch collisions, where
 * the scan's lowest-way-index tie break is easiest to get wrong — and
 * asserts every victim matches.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "common/rng.hh"

namespace fuse
{
namespace
{

// --------------------------------------------------------------------
// Legacy reference: the scan-based victim logic exactly as it shipped
// before the event-driven engine (test-only; the simulator no longer
// contains these loops).
// --------------------------------------------------------------------

/** What the legacy scan read of one way: the stamps the lines carried. */
struct ShadowWay
{
    bool valid = false;
    Cycle inserted = 0;   ///< Fill cycle (FIFO age).
    Cycle touched = 0;    ///< Last fill or hit cycle (LRU age).
};

/** LRU scans last-touch times, FIFO insertion times; the lowest way
 *  index wins ties. */
std::uint32_t
legacyVictim(ReplPolicy kind, const std::vector<ShadowWay> &ways)
{
    std::uint32_t v = 0;
    for (std::uint32_t w = 1; w < ways.size(); ++w) {
        const bool older = kind == ReplPolicy::LRU
                               ? ways[w].touched < ways[v].touched
                               : ways[w].inserted < ways[v].inserted;
        if (older)
            v = w;
    }
    return v;
}

const char *
name(ReplPolicy kind)
{
    return kind == ReplPolicy::LRU ? "LRU" : "FIFO";
}

// --------------------------------------------------------------------
// Differential driver
// --------------------------------------------------------------------

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
};

/**
 * Drive the legacy scan and the event-driven engine through the same
 * random fill/hit/invalidate stream, mirroring the TagArray protocol
 * (free ways lowest-index-first, victim() only on full sets), and assert
 * every eviction picks the same way.
 */
void
runParity(ReplPolicy kind, Geometry geom, std::uint64_t seed,
          std::size_t events)
{
    const std::uint32_t sets = geom.sets;
    const std::uint32_t ways = geom.ways;

    AgeListPolicy engine(kind, sets, ways);

    // Shadow way state, exactly what the legacy scan reads.
    std::vector<std::vector<ShadowWay>> shadow(
        sets, std::vector<ShadowWay>(ways));
    std::vector<std::uint32_t> valid_count(sets, 0);

    Rng rng(seed);
    Cycle now = 1;
    std::size_t evictions = 0;

    for (std::size_t i = 0; i < events; ++i) {
        // Same-cycle bursts exercise the tie break; otherwise advance.
        if (rng.chance(0.6))
            ++now;

        const std::uint32_t set =
            static_cast<std::uint32_t>(rng.below(sets));
        auto &lines = shadow[set];
        const double roll = rng.uniform();

        if (roll < 0.45 && valid_count[set] > 0) {
            // Hit: touch a random valid way.
            std::uint32_t w;
            do {
                w = static_cast<std::uint32_t>(rng.below(ways));
            } while (!lines[w].valid);
            lines[w].touched = now;
            engine.onHit(set, w, now);
        } else if (roll < 0.55 && valid_count[set] > 0) {
            // Invalidate a random valid way (the legacy code had no
            // eviction hook; its state is the lines themselves).
            std::uint32_t w;
            do {
                w = static_cast<std::uint32_t>(rng.below(ways));
            } while (!lines[w].valid);
            lines[w].valid = false;
            --valid_count[set];
            engine.onEvict(set, w);
        } else {
            // Fill: lowest-index free way, else replace the victim.
            std::uint32_t w = ~std::uint32_t(0);
            for (std::uint32_t c = 0; c < ways; ++c) {
                if (!lines[c].valid) {
                    w = c;
                    break;
                }
            }
            if (w == ~std::uint32_t(0)) {
                const std::uint32_t legacy_victim =
                    legacyVictim(kind, lines);
                const std::uint32_t engine_victim = engine.victim(set);
                ASSERT_EQ(engine_victim, legacy_victim)
                    << name(kind) << " " << sets << "x" << ways
                    << " diverged at event " << i << " (set " << set
                    << ", cycle " << now << ")";
                w = legacy_victim;
                ++evictions;
            } else {
                ++valid_count[set];
            }
            lines[w] = {true, now, now};
            engine.onFill(set, w, now);
        }
    }
    // The stream must actually have exercised the victim path.
    EXPECT_GT(evictions, events / 20)
        << name(kind) << " " << sets << "x" << ways;
}

constexpr std::size_t kEvents = 100000;

TEST(ReplacementParity, LruMatchesLegacyScan)
{
    // 512-way FA = the approximated-FA STT bank; 64x4 = the SRAM bank;
    // 3x5 = a deliberately non-power-of-two shape.
    runParity(ReplPolicy::LRU, {1, 512}, 11, kEvents);
    runParity(ReplPolicy::LRU, {64, 4}, 12, kEvents);
    runParity(ReplPolicy::LRU, {16, 16}, 13, kEvents);
    runParity(ReplPolicy::LRU, {3, 5}, 14, kEvents);
}

TEST(ReplacementParity, FifoMatchesLegacyScan)
{
    runParity(ReplPolicy::FIFO, {1, 512}, 21, kEvents);
    runParity(ReplPolicy::FIFO, {64, 4}, 22, kEvents);
    runParity(ReplPolicy::FIFO, {16, 16}, 23, kEvents);
    runParity(ReplPolicy::FIFO, {3, 5}, 24, kEvents);
}

/** Degenerate geometries must agree too (1-way sets evict way 0). */
TEST(ReplacementParity, DegenerateGeometries)
{
    runParity(ReplPolicy::LRU, {4, 1}, 41, 20000);
    runParity(ReplPolicy::FIFO, {1, 1}, 42, 20000);
}

} // namespace
} // namespace fuse
