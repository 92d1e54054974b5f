/**
 * @file
 * Tests for the stats framework's cached-handle contract, the
 * open-addressing flat table behind the tag-array index, and the MSHR's
 * entry array: the simulation hot path keeps Scalar/Average pointers for
 * a component's lifetime, probes wide tag arrays through FlatAddrMap and
 * merges misses in the MSHR, so all three contracts are
 * regression-guarded here.
 */

#include <gtest/gtest.h>

#include "cache_reference.hh"
#include "common/rng.hh"
#include "common/flat_map.hh"
#include "common/stats.hh"

namespace fuse
{
namespace
{

// ------------------------------------------------- cached Scalar handles

TEST(StatHandles, CachedScalarSurvivesLaterInsertions)
{
    StatGroup g("g");
    StatGroup::Scalar &first = g.scalar("a_first");
    ++first;
    // Insertions on either side of "a_first" must not move it.
    g.scalar("0_before");
    g.scalar("z_after");
    ++first;
    EXPECT_DOUBLE_EQ(g.get("a_first"), 2.0);
    EXPECT_DOUBLE_EQ(&first == &g.scalar("a_first") ? 1.0 : 0.0, 1.0);
}

TEST(StatHandles, CachedScalarObservesMerge)
{
    StatGroup a("a");
    StatGroup b("b");
    StatGroup::Scalar &cached = a.scalar("hits");
    cached.add(3);
    b.scalar("hits").add(4);
    a.merge(b);
    // merge() adds in place: the cached handle sees the merged value.
    EXPECT_DOUBLE_EQ(cached.value(), 7.0);
    EXPECT_DOUBLE_EQ(a.get("hits"), 7.0);
}

TEST(StatHandles, CachedAverageObservesMerge)
{
    StatGroup a("a");
    StatGroup b("b");
    StatGroup::Average &cached = a.average("lat");
    cached.sample(2.0);
    b.average("lat").sample(4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(cached.mean(), 3.0);
    EXPECT_EQ(cached.count(), 2u);
}

TEST(StatHandles, FindAverageIsConstSafe)
{
    StatGroup g("g");
    g.average("present").sample(1.0);
    const StatGroup &cg = g;
    ASSERT_NE(cg.findAverage("present"), nullptr);
    EXPECT_DOUBLE_EQ(cg.findAverage("present")->mean(), 1.0);
    // Lookup must not create the stat.
    EXPECT_EQ(cg.findAverage("absent"), nullptr);
    EXPECT_EQ(cg.findAverage("absent"), nullptr);
}

// ------------------------------------------------ Scalar integer lane
//
// These pin the u64 count documented in stats.hh: increments, bulk adds
// and merges are exact, and value() converts the count once.

TEST(ScalarIntegerLane, IncrementsAndBulkAddsAreExact)
{
    StatGroup g("g");
    StatGroup::Scalar &s = g.scalar("count");
    ++s;
    s++;
    s.add(40);
    EXPECT_DOUBLE_EQ(s.value(), 42.0);

    // Far past 2^53, where double accumulation of 1.0 steps stalls
    // (2^53 + 1.0 == 2^53 in double): the integer lane keeps counting.
    // Two increments discriminate: the u64 lane reaches 2^53 + 2, whose
    // double conversion is exactly 9007199254740994.0, while an
    // all-double accumulator would still read 2^53.
    StatGroup::Scalar big;
    big.add(std::uint64_t(1) << 53);
    ++big;
    ++big;
    EXPECT_DOUBLE_EQ(big.value(), 9007199254740994.0);
}

TEST(ScalarIntegerLane, MergeSemantics)
{
    // Group merge adds the counts exactly.
    StatGroup a("a");
    StatGroup b("b");
    a.scalar("x").add(5);
    b.scalar("x").add(7);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 12.0);
}

TEST(ScalarIntegerLane, FindAverageInterplayUnchanged)
{
    // Averages are a separate stat kind: the Scalar count must not leak
    // into Average bookkeeping through merge(), and a group can carry
    // both under the same name without cross-talk.
    StatGroup g("g");
    g.scalar("lat").add(100);
    g.average("lat").sample(4.0);
    g.average("lat").sample(8.0);
    EXPECT_DOUBLE_EQ(g.get("lat"), 100.0);
    ASSERT_NE(g.findAverage("lat"), nullptr);
    EXPECT_DOUBLE_EQ(g.findAverage("lat")->mean(), 6.0);

    StatGroup other("o");
    other.scalar("lat").add(50);
    other.average("lat").sample(12.0);
    g.merge(other);
    EXPECT_DOUBLE_EQ(g.get("lat"), 150.0);
    EXPECT_DOUBLE_EQ(g.findAverage("lat")->mean(), 8.0);
    EXPECT_EQ(g.findAverage("lat")->count(), 3u);
}

// ----------------------------------------------------------- FlatAddrMap

TEST(FlatAddrMap, InsertFindErase)
{
    FlatAddrMap<int> map(8);
    EXPECT_TRUE(map.empty());
    *map.insert(100) = 1;
    *map.insert(200) = 2;
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(100), nullptr);
    EXPECT_EQ(*map.find(100), 1);
    EXPECT_EQ(map.find(300), nullptr);
    EXPECT_TRUE(map.erase(100));
    EXPECT_FALSE(map.erase(100));
    EXPECT_EQ(map.find(100), nullptr);
    ASSERT_NE(map.find(200), nullptr);
    EXPECT_EQ(*map.find(200), 2);
}

TEST(FlatAddrMap, SurvivesCollisionChains)
{
    // Fill a small table to capacity so probe chains must form, then
    // delete from the middle of chains and verify every survivor is
    // still reachable (backward-shift deletion correctness).
    FlatAddrMap<std::uint64_t> map(32);
    for (std::uint64_t k = 0; k < 32; ++k)
        *map.insert(k * 0x10000) = k;
    EXPECT_EQ(map.size(), 32u);
    for (std::uint64_t k = 0; k < 32; k += 2)
        EXPECT_TRUE(map.erase(k * 0x10000));
    EXPECT_EQ(map.size(), 16u);
    for (std::uint64_t k = 0; k < 32; ++k) {
        if (k % 2 == 0) {
            EXPECT_EQ(map.find(k * 0x10000), nullptr) << k;
        } else {
            ASSERT_NE(map.find(k * 0x10000), nullptr) << k;
            EXPECT_EQ(*map.find(k * 0x10000), k);
        }
    }
}

TEST(FlatAddrMap, SlotReuseAfterChurn)
{
    // Heavy insert/erase churn in a fixed-size table: the table must
    // keep finding everything without tombstone decay (there are no
    // tombstones to decay).
    FlatAddrMap<std::uint64_t> map(16);
    for (std::uint64_t round = 0; round < 100; ++round) {
        for (std::uint64_t k = 0; k < 16; ++k)
            *map.insert(round * 1000 + k) = k;
        EXPECT_EQ(map.size(), 16u);
        for (std::uint64_t k = 0; k < 16; ++k) {
            ASSERT_NE(map.find(round * 1000 + k), nullptr);
            EXPECT_TRUE(map.erase(round * 1000 + k));
        }
        EXPECT_TRUE(map.empty());
    }
}

// ------------------------------------------------------ MSHR entry array

TEST(MshrEntryArray, FillToCapacityAndReuse)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(32, stats);
    for (Addr a = 0; a < 32; ++a) {
        auto r = mshr.access(a * 128, 100 + a);
        EXPECT_EQ(r.kind, MshrResult::Kind::NewMiss);
    }
    EXPECT_TRUE(mshr.full());
    EXPECT_EQ(mshr.access(9999 * 128, 10).kind,
              MshrResult::Kind::Full);
    // Retire everything that is ready and reuse the freed entries.
    mshr.retireReady(115);  // frees readyAt 100..115 => 16 entries
    EXPECT_EQ(mshr.size(), 16u);
    for (Addr a = 0; a < 16; ++a) {
        auto r = mshr.access((1000 + a) * 128, 500);
        EXPECT_EQ(r.kind, MshrResult::Kind::NewMiss) << a;
    }
    EXPECT_TRUE(mshr.full());
}

TEST(MshrEntryArray, CollidingLinesStayFindable)
{
    // Line addresses that differ only in their high bits. Every
    // in-flight entry must remain findable, and retire cleanly while
    // retirement moves the survivors into the gaps it leaves.
    StatGroup stats("l1d");
    ReferenceMshr mshr(8, stats);
    std::vector<Addr> lines;
    for (Addr i = 0; i < 8; ++i)
        lines.push_back((i << 40) | 0x1000);
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(mshr.access(lines[i], i % 2 == 0 ? 50 : 60).kind,
                  MshrResult::Kind::NewMiss);
    for (Addr line : lines) {
        MshrEntry *e = mshr.find(line);
        ASSERT_NE(e, nullptr);
        EXPECT_EQ(e->lineAddr, line);
    }
    // Retire every other entry (the even ones fill first), then verify
    // the survivors.
    mshr.retireReady(50);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i % 2 == 0)
            EXPECT_EQ(mshr.find(lines[i]), nullptr);
        else
            EXPECT_NE(mshr.find(lines[i]), nullptr);
    }
}

TEST(MshrEntryArray, MinReadyAtTracksAcrossRetires)
{
    StatGroup stats("l1d");
    ReferenceMshr mshr(4, stats);
    mshr.access(1 * 128, 30);
    mshr.access(2 * 128, 10);
    mshr.access(3 * 128, 20);
    EXPECT_EQ(mshr.minReadyAt(), 10u);
    mshr.retireReady(15);
    EXPECT_EQ(mshr.find(2 * 128), nullptr);
    EXPECT_EQ(mshr.minReadyAt(), 20u);
    mshr.retireReady(100);
    EXPECT_EQ(mshr.size(), 0u);
}

// ------------------------------------------------------ MSHR retirement
//
// retireReady() frees every elapsed entry by moving the array's last
// entry into its gap, where it once swept a slot table and then popped a
// ready min-heap. The observable contract — which entries survive each
// retirement, and the exact minReadyAt (it schedules Full-stall retries,
// so it is timing-visible) — must be bit-identical to the old sweep. The
// reference below reimplements the historical semantics over a plain
// vector.

/** The slot-sweep Mshr retirement semantics, kept as a test reference. */
class LegacySweepMshr
{
  public:
    explicit LegacySweepMshr(std::uint32_t capacity) : capacity_(capacity)
    {}

    MshrResult::Kind
    access(Addr line, Cycle ready_at)
    {
        for (const auto &e : entries_) {
            if (e.lineAddr == line)
                return MshrResult::Kind::Merged;
        }
        if (entries_.size() >= capacity_)
            return MshrResult::Kind::Full;
        MshrEntry e;
        e.lineAddr = line;
        e.readyAt = ready_at;
        entries_.push_back(e);
        if (ready_at < minReadyAt_)
            minReadyAt_ = ready_at;
        return MshrResult::Kind::NewMiss;
    }

    void
    retireReady(Cycle now)
    {
        if (entries_.empty() || now < minReadyAt_)
            return;
        // The historical slow sweep: drop elapsed entries, recompute the
        // exact minimum over the survivors.
        Cycle new_min = ~Cycle(0);
        std::vector<MshrEntry> kept;
        for (const auto &e : entries_) {
            if (e.readyAt <= now)
                continue;
            if (e.readyAt < new_min)
                new_min = e.readyAt;
            kept.push_back(e);
        }
        entries_ = std::move(kept);
        minReadyAt_ = new_min;
    }

    const MshrEntry *
    find(Addr line) const
    {
        for (const auto &e : entries_) {
            if (e.lineAddr == line)
                return &e;
        }
        return nullptr;
    }

    std::size_t size() const { return entries_.size(); }
    Cycle minReadyAt() const { return minReadyAt_; }

  private:
    std::uint32_t capacity_;
    std::vector<MshrEntry> entries_;
    Cycle minReadyAt_ = ~Cycle(0);
};

TEST(MshrRetirement, RetirementMatchesLegacySweepUnderChurn)
{
    constexpr std::uint32_t kCapacity = 16;
    StatGroup stats("l1d");
    ReferenceMshr mshr(kCapacity, stats);
    LegacySweepMshr ref(kCapacity);
    Rng rng(2024);

    // A small address pool forces merges, re-allocations of retired
    // lines, and lines that differ only in their high bits.
    std::vector<Addr> pool;
    for (Addr i = 0; i < 40; ++i)
        pool.push_back(((i % 5) << 40) | (i * 128));

    Cycle now = 0;
    for (int step = 0; step < 200000; ++step) {
        now += rng.below(3);
        const double roll = rng.uniform();
        if (roll < 0.60) {
            const Addr line = pool[rng.below(pool.size())];
            const Cycle ready = now + 1 + rng.below(100);
            const auto got = mshr.access(line, ready);
            const auto want = ref.access(line, ready);
            ASSERT_EQ(got.kind, want) << "step " << step;
        } else {
            mshr.retireReady(now);
            ref.retireReady(now);
            // Surviving set and the timing-visible minimum must match
            // the legacy sweep exactly.
            ASSERT_EQ(mshr.size(), ref.size()) << "step " << step;
            ASSERT_EQ(mshr.minReadyAt(), ref.minReadyAt())
                << "step " << step;
            for (const Addr line : pool) {
                const MshrEntry *e = mshr.find(line);
                const MshrEntry *r = ref.find(line);
                ASSERT_EQ(e != nullptr, r != nullptr)
                    << "step " << step << " line " << line;
                if (e) {
                    ASSERT_EQ(e->readyAt, r->readyAt) << "step " << step;
                }
            }
        }
    }
}

} // namespace
} // namespace fuse
