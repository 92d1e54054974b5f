/**
 * @file
 * Randomized differential parity tier for the single-probe access
 * pipeline.
 *
 * The L1D access path used to resolve a request's tag-array residency
 * several times — a probe for the hit check, a peek for the STT side,
 * and a fresh resident check inside fill — and PR 5 collapsed those
 * into one TagArray::lookup() whose Probe threads through
 * hitLine/fillAt/invalidateAt. Every figure depends on the two
 * pipelines making identical decisions, so this tier keeps the
 * two-lookup protocol alive as the reference model: it drives one
 * TagArray (and one CacheBank) through the historical
 * peek-then-probe-then-fill entry points and a twin through the
 * resolved-Probe entry points, with ~10^5 random access/fill/invalidate
 * events per geometry — including the 1x512 approximated-FA STT shape
 * that exercises the residency index — and asserts identical
 * hit/miss/victim/eviction/stat outcomes plus identical final array
 * state.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "cache/tag_array.hh"
#include "common/rng.hh"
#include "fuse/cache_bank.hh"

namespace fuse
{
namespace
{

struct Geometry
{
    std::uint32_t sets;
    std::uint32_t ways;
};

/** Snapshot of every valid line, keyed by tag, for final-state diffs. */
std::map<Addr, CacheLine>
validLines(const TagArray &tags)
{
    std::map<Addr, CacheLine> lines;
    tags.forEachValid([&](const CacheLine &line) { lines[line.tag] = line; });
    return lines;
}

void
expectSameLine(const CacheLine &a, const CacheLine &b, const char *what)
{
    EXPECT_EQ(a.tag, b.tag) << what;
    EXPECT_EQ(a.valid, b.valid) << what;
    EXPECT_EQ(a.dirty, b.dirty) << what;
    EXPECT_EQ(a.lastTouch, b.lastTouch) << what;
    EXPECT_EQ(a.insertedAt, b.insertedAt) << what;
    EXPECT_EQ(a.readCount, b.readCount) << what;
    EXPECT_EQ(a.writeCount, b.writeCount) << what;
}

/**
 * Drive the reference two-lookup pipeline (peek to learn residency, then
 * probe/fill/invalidate which each re-resolve it) and the single-Probe
 * pipeline (lookup once, act through the *At entry points) over the same
 * random event stream, asserting every observable outcome matches.
 */
void
runTagArrayParity(ReplPolicy policy, Geometry geom, std::uint64_t seed,
                  std::size_t events)
{
    TagArray reference(geom.sets, geom.ways, policy);
    TagArray probed(geom.sets, geom.ways, policy);

    Rng rng(seed);
    Cycle now = 1;
    // A window of addresses a few times the array's capacity keeps the
    // streams colliding: plenty of hits, plenty of forced evictions.
    const Addr window = Addr(geom.sets) * geom.ways * 3 + 7;
    std::size_t hits = 0;
    std::size_t evictions = 0;

    for (std::size_t i = 0; i < events; ++i) {
        if (rng.chance(0.6))
            ++now;
        const Addr addr = 1 + rng.below(window);
        const double roll = rng.uniform();

        // Reference pipeline: the old shape — peek for residency, then
        // let the acting entry point re-resolve it internally.
        // Probe pipeline: resolve once, act through the probe.
        const TagArray::Probe probe = probed.lookup(addr);

        if (roll < 0.45) {
            // Access: peek + probe vs lookup + hitLine.
            const CacheLine *ref_peek = reference.peek(addr);
            ASSERT_EQ(ref_peek != nullptr, probe.hit())
                << "residency diverged at event " << i;
            CacheLine *ref_line = reference.probe(addr, now);
            CacheLine *new_line =
                probe.hit() ? probed.hitLine(probe, now) : nullptr;
            ASSERT_EQ(ref_line != nullptr, new_line != nullptr);
            if (ref_line) {
                ++hits;
                expectSameLine(*ref_line, *new_line, "hit line");
            }
        } else if (roll < 0.55) {
            // Invalidate: both pipelines must agree on what they remove.
            auto ref_removed = reference.invalidate(addr);
            auto new_removed = probed.invalidateAt(probe);
            ASSERT_EQ(ref_removed.has_value(), new_removed.has_value())
                << "invalidate diverged at event " << i;
            if (ref_removed)
                expectSameLine(*ref_removed, *new_removed, "invalidated");
        } else {
            // Fill: same victim (or lack of one), same filled slot.
            CacheLine *ref_filled = nullptr;
            CacheLine *new_filled = nullptr;
            auto ref_ev = reference.fill(addr, now, &ref_filled);
            auto new_ev = probed.fillAt(probe, addr, now, &new_filled);
            ASSERT_EQ(ref_ev.has_value(), new_ev.has_value())
                << "eviction decision diverged at event " << i;
            if (ref_ev) {
                ++evictions;
                expectSameLine(ref_ev->line, new_ev->line, "victim");
            }
            ASSERT_EQ(ref_filled != nullptr, new_filled != nullptr);
            if (ref_filled)
                expectSameLine(*ref_filled, *new_filled, "filled");
        }
        ASSERT_EQ(reference.occupancy(), probed.occupancy())
            << "occupancy diverged at event " << i;
    }

    // The stream must actually have exercised both interesting paths
    // (the floor is loose enough for the degenerate 1x1 geometry, whose
    // single line is usually invalidated before it can be re-hit).
    EXPECT_GT(hits, events / 50);
    EXPECT_GT(evictions, events / 50);

    // Full final-state equivalence, not just per-event agreement.
    const auto ref_lines = validLines(reference);
    const auto new_lines = validLines(probed);
    ASSERT_EQ(ref_lines.size(), new_lines.size());
    for (const auto &[tag, line] : ref_lines) {
        auto it = new_lines.find(tag);
        ASSERT_NE(it, new_lines.end()) << "line " << tag << " missing";
        expectSameLine(line, it->second, "final state");
    }
}

constexpr std::size_t kEvents = 100000;

TEST(ProbeParity, NarrowSetAssociative)
{
    // 64x4 = the SRAM L1D bank / L2 bank shape (per-set tag-map scan).
    runTagArrayParity(ReplPolicy::LRU, {64, 4}, 51, kEvents);
    runTagArrayParity(ReplPolicy::FIFO, {64, 4}, 52, kEvents);
}

TEST(ProbeParity, FullyAssociative512Way)
{
    // 1x512 = the approximated-FA STT bank: lookups go through the
    // flat-map residency index, the geometry the issue singles out.
    runTagArrayParity(ReplPolicy::FIFO, {1, 512}, 61, kEvents);
    runTagArrayParity(ReplPolicy::LRU, {1, 512}, 62, kEvents);
}

TEST(ProbeParity, OddAndDegenerateGeometries)
{
    runTagArrayParity(ReplPolicy::LRU, {3, 5}, 71, kEvents);
    runTagArrayParity(ReplPolicy::LRU, {16, 16}, 72, kEvents);
    runTagArrayParity(ReplPolicy::FIFO, {4, 1}, 73, 20000);
    runTagArrayParity(ReplPolicy::LRU, {1, 1}, 74, 20000);
}

/**
 * CacheBank-level parity: the timed access/fill wrappers vs the
 * lookup + accessAt/fillAt pipeline the L1Ds now run, including bank
 * occupancy timing and the per-bank stat counters.
 */
TEST(ProbeParity, CacheBankTimedPipeline)
{
    BankConfig config = makeSttBankConfig(8 * 1024, 2,
                                          /*fully_associative=*/true);
    CacheBank reference(config, "ref");
    CacheBank probed(config, "probed");

    Rng rng(81);
    Cycle now = 1;
    const Addr window = reference.tags().numLines() * 3 + 5;

    for (std::size_t i = 0; i < 50000; ++i) {
        if (rng.chance(0.7))
            ++now;
        const Addr addr = 1 + rng.below(window);
        const AccessType type =
            rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        const TagArray::Probe probe = probed.lookup(addr);

        if (rng.chance(0.6)) {
            Cycle ref_done = 0;
            Cycle new_done = 0;
            CacheLine *ref_line =
                reference.access(addr, type, now, &ref_done);
            CacheLine *new_line =
                probed.accessAt(probe, type, now, &new_done);
            ASSERT_EQ(ref_line != nullptr, new_line != nullptr)
                << "bank hit diverged at event " << i;
            ASSERT_EQ(ref_done, new_done) << "timing diverged at " << i;
        } else {
            Cycle ref_done = 0;
            Cycle new_done = 0;
            auto ref_ev = reference.fill(addr, type, now, &ref_done);
            auto new_ev =
                probed.fillAt(probe, addr, type, now, &new_done);
            ASSERT_EQ(ref_ev.has_value(), new_ev.has_value())
                << "bank eviction diverged at event " << i;
            ASSERT_EQ(ref_done, new_done);
            if (ref_ev)
                expectSameLine(ref_ev->line, new_ev->line, "bank victim");
        }
        ASSERT_EQ(reference.busyUntil(), probed.busyUntil());
        ASSERT_EQ(reference.fillBusyUntil(), probed.fillBusyUntil());
    }

    // Stat parity: identical event streams must count identically.
    for (const char *stat : {"array_reads", "array_writes", "fills",
                             "dirty_evictions", "clean_evictions"}) {
        EXPECT_DOUBLE_EQ(reference.stats().get(stat),
                         probed.stats().get(stat))
            << stat;
    }
}

} // namespace
} // namespace fuse
