/**
 * @file
 * Unit tests for the common substrate: types, stats, RNG, and the
 * strict CLI count parser.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/cli.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fuse
{
namespace
{

TEST(Types, LineAddrStripsOffsetBits)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(127), 0u);
    EXPECT_EQ(lineAddr(128), 1u);
    EXPECT_EQ(lineAddr(129), 1u);
    EXPECT_EQ(lineAddr(0x10000), 0x10000u >> 7);
}

TEST(Types, LineBaseAligns)
{
    EXPECT_EQ(lineBase(0), 0u);
    EXPECT_EQ(lineBase(130), 128u);
    EXPECT_EQ(lineBase(255), 128u);
    EXPECT_EQ(lineBase(256), 256u);
}

TEST(Types, LineRoundTrip)
{
    for (Addr a : {Addr(0), Addr(1), Addr(4096), Addr(0xdeadbeef)})
        EXPECT_EQ(lineBase(a) >> kLineShift, lineAddr(a));
}

TEST(Stats, ScalarAccumulates)
{
    StatGroup g("test");
    g.scalar("x").add(2);
    ++g.scalar("x");
    g.scalar("x")++;
    EXPECT_DOUBLE_EQ(g.get("x"), 4.0);
}

TEST(Stats, MissingScalarReadsZero)
{
    StatGroup g("test");
    EXPECT_DOUBLE_EQ(g.get("never_set"), 0.0);
}

TEST(Stats, AverageTracksMeanAndCount)
{
    StatGroup g("test");
    g.average("lat").sample(10);
    g.average("lat").sample(20);
    g.average("lat").sample(30);
    EXPECT_DOUBLE_EQ(g.average("lat").mean(), 20.0);
    EXPECT_EQ(g.average("lat").count(), 3u);
}

TEST(Stats, MergeAddsScalarsAndAverages)
{
    StatGroup a("a");
    StatGroup b("b");
    a.scalar("hits").add(3);
    b.scalar("hits").add(4);
    b.scalar("misses").add(1);
    a.average("lat").sample(10);
    b.average("lat").sample(30);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("hits"), 7.0);
    EXPECT_DOUBLE_EQ(a.get("misses"), 1.0);
    EXPECT_DOUBLE_EQ(a.average("lat").mean(), 20.0);
    EXPECT_EQ(a.average("lat").count(), 2u);
}

TEST(Stats, DumpContainsGroupAndStatNames)
{
    StatGroup g("cache");
    g.scalar("hits").add(2);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("cache.hits 2"), std::string::npos);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    // Mean should be near 0.5 for a uniform generator.
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, CoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(ParseCount, AcceptsBounds)
{
    EXPECT_EQ(parseCount("--threads", "1"), 1u);
    EXPECT_EQ(parseCount("--threads", "4096"), 4096u);
    EXPECT_EQ(parseCount("--threads", "17"), 17u);
}

TEST(ParseCountDeathTest, RejectsOutOfRangeAndGarbage)
{
    EXPECT_EXIT({ parseCount("--threads", "0"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "4097"); },
                ::testing::ExitedWithCode(1), "\\[1, 4096\\]");
    EXPECT_EXIT({ parseCount("--threads", "-1"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "abc"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "1.5"); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", ""); },
                ::testing::ExitedWithCode(1), "--threads expects");
    EXPECT_EXIT({ parseCount("--threads", "12x"); },
                ::testing::ExitedWithCode(1), "--threads expects");
}

} // namespace
} // namespace fuse
