/**
 * @file
 * Differential parity tier for the presence-filter layer (cache/
 * presence.hh): the filtered consult paths must be observably identical
 * to the unfiltered reference — zero false negatives, identical visible
 * results — under ~1e5 random churn events per geometry, including the
 * 1x512 fully-associative SRAM bank.
 *
 * Three layers of differential:
 *  - PresenceSummary vs an exact ground-truth set (raw contract);
 *  - Mshr (always filtered) vs an independent reference model of the
 *    MSHR's visible semantics (find/access/retire/retireReady);
 *  - a presence-filtered CacheBank vs an identically-configured
 *    unfiltered CacheBank driven by the same operation stream
 *    (lookup/access/fill/invalidate/peek churn == fill/evict/swap).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "cache/mshr.hh"
#include "cache/presence.hh"
#include "common/rng.hh"
#include "fuse/cache_bank.hh"

namespace fuse
{
namespace
{

// ---------------------------------------------------------------------
// Raw PresenceSummary contract vs ground truth.
// ---------------------------------------------------------------------

struct RawParams
{
    const char *name;
    std::uint32_t maxMembers;
    std::uint32_t numSlots;    ///< 0 = auto.
    std::uint32_t numHashes;
    std::uint64_t keySpan;     ///< Key pool size (small = heavy reuse).
};

class PresenceRaw : public ::testing::TestWithParam<RawParams>
{};

TEST_P(PresenceRaw, ChurnNeverFalseNegative)
{
    const auto &p = GetParam();
    PresenceSummary summary(p.maxMembers, p.numSlots, p.numHashes);

    std::unordered_set<std::uint64_t> truth;
    Rng rng(0xF17Cull * (p.maxMembers + p.numHashes));
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t key = 0x4000 + rng.below(p.keySpan) * 64;
        const double action = rng.uniform();
        if (action < 0.35 && truth.size() < p.maxMembers) {
            if (truth.insert(key).second)
                summary.insert(key);
        } else if (action < 0.55 && !truth.empty()) {
            std::uint64_t victim = *truth.begin();
            summary.remove(victim);
            truth.erase(victim);
        } else {
            const bool may = summary.mayContain(key);
            if (truth.count(key)) {
                ASSERT_TRUE(may) << "false negative for live member " << key;
            }
        }
        ASSERT_EQ(summary.members(), truth.size());
    }
    // Every survivor must still read present at the end.
    for (std::uint64_t k : truth)
        ASSERT_TRUE(summary.mayContain(k));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PresenceRaw,
    ::testing::Values(
        // The MSHR file: tiny exact summary, heavy key reuse.
        RawParams{"mshr32", 32, 0, 1, 96},
        // The default SRAM bank (64x4 = 256 lines).
        RawParams{"sram256", 256, 0, 1, 1024},
        // The 1x512 fully-associative SRAM geometry.
        RawParams{"fa512", 512, 0, 1, 1536},
        // Multi-hash variant.
        RawParams{"twohash", 256, 0, 2, 1024}),
    [](const ::testing::TestParamInfo<RawParams> &info) {
        return info.param.name;
    });

TEST(PresenceSummaryDeathTest, ExactModeTrapsUnbalancedRemove)
{
    // An exact-mode remove of a never-inserted key is an owner
    // maintenance bug and must trap rather than silently corrupt the
    // no-false-negative contract.
    PresenceSummary summary(8);
    EXPECT_EXIT(summary.remove(0xDEAD), ::testing::ExitedWithCode(1),
                "maintenance bug");
}

TEST(PresenceSummaryDeathTest, OverBoundGeometryIsFatal)
{
    // A membership bound the u16 counters cannot hold exactly has no
    // fallback: refuse it at construction.
    EXPECT_EXIT(PresenceSummary(65536), ::testing::ExitedWithCode(1),
                "exceeds the u16 counter");
    EXPECT_EXIT(PresenceSummary(32768, 0, 2), ::testing::ExitedWithCode(1),
                "exceeds the u16 counter");
    PresenceSummary at_bound(65535);
    EXPECT_EQ(at_bound.maxMembers(), 65535u);
}

// ---------------------------------------------------------------------
// Mshr vs an independent reference model of its visible semantics.
// ---------------------------------------------------------------------

struct MshrRefEntry
{
    Cycle readyAt = 0;
    BankId destination = BankId::Sram;
    std::uint32_t mergedCount = 0;
};

class MshrFilterParity : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(MshrFilterParity, ChurnMatchesReferenceModel)
{
    const std::uint32_t capacity = GetParam();
    Mshr mshr(capacity);
    std::unordered_map<Addr, MshrRefEntry> ref;

    Rng rng(0x5157ull + capacity);
    const std::uint64_t pool = capacity * 3;
    Cycle now = 0;
    for (int i = 0; i < 100000; ++i) {
        const Addr addr = 0x8000 + rng.below(pool) * 64;
        const double action = rng.uniform();
        if (action < 0.40) {
            // Probe: presence, entry fields, and absence must agree.
            MshrEntry *e = mshr.find(addr);
            auto it = ref.find(addr);
            ASSERT_EQ(e != nullptr, it != ref.end())
                << "find() disagreed on " << addr;
            if (e) {
                ASSERT_EQ(e->readyAt, it->second.readyAt);
                ASSERT_EQ(e->destination, it->second.destination);
                ASSERT_EQ(e->mergedCount, it->second.mergedCount);
            }
        } else if (action < 0.70) {
            // Access: merge/allocate/full outcome must agree.
            const Cycle ready = now + 1 + rng.below(200);
            const BankId dest =
                rng.below(2) ? BankId::Sram : BankId::SttMram;
            MshrResult r = mshr.access(addr, ready, dest);
            auto it = ref.find(addr);
            if (it != ref.end()) {
                ASSERT_EQ(r.kind, MshrResult::Kind::Merged);
                ++it->second.mergedCount;
            } else if (ref.size() >= capacity) {
                ASSERT_EQ(r.kind, MshrResult::Kind::Full);
            } else {
                ASSERT_EQ(r.kind, MshrResult::Kind::NewMiss);
                ref[addr] = {ready, dest, 0};
            }
        } else if (action < 0.80 && !ref.empty()) {
            // Early retire (fill applied out of band).
            const Addr victim = ref.begin()->first;
            mshr.retire(victim);
            ref.erase(victim);
        } else {
            // Bulk lazy retirement sweep.
            now += rng.below(40);
            mshr.retireReady(now);
            for (auto it = ref.begin(); it != ref.end();) {
                if (it->second.readyAt <= now)
                    it = ref.erase(it);
                else
                    ++it;
            }
        }
        ASSERT_EQ(mshr.size(), ref.size());
        ASSERT_EQ(mshr.full(), ref.size() >= capacity);
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, MshrFilterParity,
                         ::testing::Values(4u, 32u, 512u),
                         [](const ::testing::TestParamInfo<std::uint32_t>
                                &info) {
                             return "cap" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Filtered vs unfiltered CacheBank under one operation stream.
// ---------------------------------------------------------------------

struct BankParams
{
    const char *name;
    std::uint32_t sizeBytes;
    std::uint32_t numSets;
    std::uint32_t numWays;
    ReplPolicy policy;
    std::uint64_t pool;   ///< Distinct line addresses in play.
};

class BankFilterParity : public ::testing::TestWithParam<BankParams>
{};

TEST_P(BankFilterParity, ChurnVisiblyIdenticalToUnfiltered)
{
    const auto &g = GetParam();
    BankConfig cfg;
    cfg.tech = BankTech::Sram;
    cfg.sizeBytes = g.sizeBytes;
    cfg.numSets = g.numSets;
    cfg.numWays = g.numWays;
    cfg.policy = g.policy;
    cfg.presenceFilter = true;
    CacheBank filtered(cfg, "filtered");
    cfg.presenceFilter = false;
    CacheBank reference(cfg, "reference");

    Rng rng(0xBA27ull + g.numSets);
    Cycle now = 0;
    for (int i = 0; i < 100000; ++i) {
        const Addr addr = 0x2000 + rng.below(g.pool);
        const double action = rng.uniform();
        ++now;
        if (action < 0.45) {
            // Demand access (lookup + timed hit path).
            Cycle done_f = 0, done_r = 0;
            const AccessType type =
                rng.below(4) ? AccessType::Read : AccessType::Write;
            CacheLine *lf = filtered.access(addr, type, now, &done_f);
            CacheLine *lr = reference.access(addr, type, now, &done_r);
            ASSERT_EQ(lf != nullptr, lr != nullptr)
                << "access() hit/miss disagreed on " << addr;
            if (lf) {
                ASSERT_EQ(done_f, done_r);
                ASSERT_EQ(lf->tag, lr->tag);
                ASSERT_EQ(lf->dirty, lr->dirty);
                ASSERT_EQ(lf->readCount, lr->readCount);
                ASSERT_EQ(lf->writeCount, lr->writeCount);
            }
        } else if (action < 0.55) {
            // Untimed resolve: the probe is the visible result.
            TagArray::Probe pf = filtered.lookup(addr);
            TagArray::Probe pr = reference.lookup(addr);
            ASSERT_EQ(pf.hit(), pr.hit());
            ASSERT_EQ(pf.set, pr.set);
            if (pf.hit()) {
                ASSERT_EQ(pf.way, pr.way);
                ASSERT_EQ(pf.slot, pr.slot);
            }
        } else if (action < 0.85) {
            // Fill (evicting churn — the swap path's bank-level effect).
            Cycle done_f = 0, done_r = 0;
            CacheLine *slot_f = nullptr, *slot_r = nullptr;
            auto ev_f = filtered.fill(addr, AccessType::Read, now, &done_f,
                                      &slot_f);
            auto ev_r = reference.fill(addr, AccessType::Read, now, &done_r,
                                       &slot_r);
            ASSERT_EQ(done_f, done_r);
            ASSERT_EQ(ev_f.has_value(), ev_r.has_value());
            if (ev_f) {
                ASSERT_EQ(ev_f->line.tag, ev_r->line.tag);
                ASSERT_EQ(ev_f->line.dirty, ev_r->line.dirty);
            }
            ASSERT_EQ(slot_f != nullptr, slot_r != nullptr);
            if (slot_f) {
                ASSERT_EQ(slot_f->tag, slot_r->tag);
            }
        } else if (action < 0.95) {
            // Invalidate (writeback / swap-out path).
            auto inv_f = filtered.invalidate(addr);
            auto inv_r = reference.invalidate(addr);
            ASSERT_EQ(inv_f.has_value(), inv_r.has_value());
            if (inv_f) {
                ASSERT_EQ(inv_f->tag, inv_r->tag);
                ASSERT_EQ(inv_f->dirty, inv_r->dirty);
            }
        } else {
            const CacheLine *pk_f = filtered.peek(addr);
            const CacheLine *pk_r = reference.peek(addr);
            ASSERT_EQ(pk_f != nullptr, pk_r != nullptr);
            if (pk_f) {
                ASSERT_EQ(pk_f->tag, pk_r->tag);
            }
        }
        ASSERT_EQ(filtered.tags().occupancy(), reference.tags().occupancy());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BankFilterParity,
    ::testing::Values(
        // The default 32KB SRAM partition (64x4, LRU).
        BankParams{"sram64x4", 32 * 1024, 64, 4, ReplPolicy::LRU, 768},
        // The 1x512 fully-associative geometry (flat-map-indexed tags).
        BankParams{"fa1x512", 64 * 1024, 1, 512, ReplPolicy::FIFO, 1536},
        // Tiny bank + narrow pool: constant eviction/refill churn, so
        // the filter sees adversarial insert/remove pressure per slot.
        BankParams{"tiny4x2", 1024, 4, 2, ReplPolicy::LRU, 24}),
    [](const ::testing::TestParamInfo<BankParams> &info) {
        return info.param.name;
    });

} // namespace
} // namespace fuse
