/**
 * @file
 * Tests for the exact profiling layer (src/prof): counter exactness
 * against hand-computed workloads and the simulator's independent
 * StatGroup counters, scoped-timer nesting under a deterministic test
 * clock, report JSON round-trips (bare and exp-document framing), and
 * the OFF build's no-op macro contract. The registry/report API is
 * compiled in both configurations, so most of the file runs either way;
 * the macro-driven, simulator cross-check and sweep thread-count suites
 * are gated on FUSE_PROF_ENABLED.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "exp/experiment.hh"
#include "exp/export.hh"
#include "exp/sweep_runner.hh"
#include "prof/prof.hh"
#include "sim/simulator.hh"

namespace fuse
{
namespace
{

/** Sample for (component, name) in @p r, failing the test when absent. */
const prof::SiteSample &
sampleOf(const prof::ProfileReport &r, const std::string &component,
         const std::string &name)
{
    const prof::SiteSample *s = r.find(component, name);
    if (!s) {
        ADD_FAILURE() << "missing site " << component << "/" << name;
        static const prof::SiteSample empty;
        return empty;
    }
    return *s;
}

TEST(ProfRegistry, SiteIsDeduplicatedAndStable)
{
    prof::Site &a = prof::site("test_reg", "dedup");
    prof::Site &b = prof::site("test_reg", "dedup");
    EXPECT_EQ(&a, &b);
    prof::Site &c = prof::site("test_reg", "other");
    EXPECT_NE(&a, &c);
    EXPECT_EQ(a.component(), "test_reg");
    EXPECT_EQ(a.name(), "dedup");
}

TEST(ProfRegistry, CounterExactnessHandComputed)
{
    // A hand-computed micro-workload over three sites: site k receives
    // sum_{i=1..40} (i % (k + 2)) events. Exactness means the snapshot
    // reproduces the closed-form sums, not approximately but equal.
    prof::Site *sites[3] = {&prof::site("test_exact", "s0"),
                            &prof::site("test_exact", "s1"),
                            &prof::site("test_exact", "s2")};
    const prof::ProfileReport before = prof::snapshot();
    std::uint64_t expected[3] = {0, 0, 0};
    for (std::uint64_t i = 1; i <= 40; ++i) {
        for (std::uint64_t k = 0; k < 3; ++k) {
            sites[k]->add(i % (k + 2));
            expected[k] += i % (k + 2);
        }
    }
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    EXPECT_EQ(delta.count("test_exact", "s0"), expected[0]);
    EXPECT_EQ(delta.count("test_exact", "s1"), expected[1]);
    EXPECT_EQ(delta.count("test_exact", "s2"), expected[2]);
    // Closed forms: i%2 sums to 20, i%3 to 40, i%4 to 60 over 1..40.
    EXPECT_EQ(expected[0], 20u);
    EXPECT_EQ(expected[1], 40u);
    EXPECT_EQ(expected[2], 60u);
}

// ---- Scoped-timer nesting under a deterministic clock. --------------

/** Fake monotonic clock: every read advances time by 100 ns. */
std::uint64_t g_fake_now = 0;
std::uint64_t
fakeClock()
{
    return g_fake_now += 100;
}

class FakeClockFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        g_fake_now = 0;
        prof::setClockForTest(&fakeClock);
    }
    void TearDown() override { prof::setClockForTest(nullptr); }
};

TEST_F(FakeClockFixture, ScopedTimerAttributesExclusiveTime)
{
    prof::Site &outer = prof::site("test_timer", "outer");
    prof::Site &inner = prof::site("test_timer", "inner");
    const prof::ProfileReport before = prof::snapshot();
    {
        // Clock reads: outer start (100), inner start (200), inner end
        // (300), outer end (400) — inner total 100, outer total 300 of
        // which 100 belongs to the child, so 200 exclusive.
        prof::ScopedTimer t_outer(outer);
        {
            prof::ScopedTimer t_inner(inner);
        }
    }
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    const prof::SiteSample &o = sampleOf(delta, "test_timer", "outer");
    const prof::SiteSample &i = sampleOf(delta, "test_timer", "inner");
    EXPECT_EQ(i.timedScopes, 1u);
    EXPECT_EQ(i.inclusiveNs, 100u);
    EXPECT_EQ(i.exclusiveNs, 100u);
    EXPECT_EQ(o.timedScopes, 1u);
    EXPECT_EQ(o.inclusiveNs, 300u);
    EXPECT_EQ(o.exclusiveNs, 200u);
}

TEST_F(FakeClockFixture, SiblingScopesBothDebitTheParent)
{
    prof::Site &parent = prof::site("test_timer", "parent");
    prof::Site &child = prof::site("test_timer", "child");
    const prof::ProfileReport before = prof::snapshot();
    {
        // Reads: parent start (100), child A start/end (200/300), child
        // B start/end (400/500), parent end (600): parent total 500,
        // children 2 x 100, so 300 exclusive.
        prof::ScopedTimer t_parent(parent);
        {
            prof::ScopedTimer a(child);
        }
        {
            prof::ScopedTimer b(child);
        }
    }
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    const prof::SiteSample &p = sampleOf(delta, "test_timer", "parent");
    const prof::SiteSample &c = sampleOf(delta, "test_timer", "child");
    EXPECT_EQ(c.timedScopes, 2u);
    EXPECT_EQ(c.inclusiveNs, 200u);
    EXPECT_EQ(p.timedScopes, 1u);
    EXPECT_EQ(p.inclusiveNs, 500u);
    EXPECT_EQ(p.exclusiveNs, 300u);
}

// ---- Report semantics. ----------------------------------------------

TEST(ProfReport, DiffDropsUntouchedSitesAndFindMissesReturnZero)
{
    prof::Site &touched = prof::site("test_diff", "touched");
    prof::site("test_diff", "untouched");
    const prof::ProfileReport before = prof::snapshot();
    touched.add(7);
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    EXPECT_EQ(delta.count("test_diff", "touched"), 7u);
    EXPECT_EQ(delta.find("test_diff", "untouched"), nullptr);
    EXPECT_EQ(delta.count("test_diff", "untouched"), 0u);
    EXPECT_EQ(delta.count("no_such", "site"), 0u);
}

TEST(ProfReport, SitesAreSortedByComponentThenName)
{
    prof::site("test_zz_order", "b").add(1);
    prof::site("test_zz_order", "a").add(1);
    const prof::ProfileReport r = prof::snapshot();
    for (std::size_t i = 1; i < r.sites.size(); ++i) {
        const auto &prev = r.sites[i - 1];
        const auto &cur = r.sites[i];
        EXPECT_TRUE(prev.component < cur.component
                    || (prev.component == cur.component
                        && prev.name < cur.name))
            << prev.component << "/" << prev.name << " before "
            << cur.component << "/" << cur.name;
    }
}

prof::ProfileReport
makeReferenceReport()
{
    prof::ProfileReport r;
    prof::SiteSample a;
    a.component = "l1d_bank";
    a.name = "demand_resolutions";
    a.count = 209288671ull;
    r.sites.push_back(a);
    prof::SiteSample b;
    b.component = "sim";
    b.name = "run";
    b.timedScopes = 147;
    b.inclusiveNs = 40130700000ull;
    b.exclusiveNs = 127200000ull;
    r.sites.push_back(b);
    return r;
}

TEST(ProfReport, JsonRoundTripIsExact)
{
    const prof::ProfileReport original = makeReferenceReport();
    std::stringstream ss;
    original.writeJson(ss, /*runs=*/147);
    const prof::ProfileReport parsed = prof::ProfileReport::fromJson(ss);
    ASSERT_EQ(parsed.sites.size(), original.sites.size());
    for (std::size_t i = 0; i < original.sites.size(); ++i)
        EXPECT_TRUE(parsed.sites[i] == original.sites[i]) << i;
}

TEST(ProfReport, ExpDocumentRoundTripsThroughFromJson)
{
    const prof::ProfileReport original = makeReferenceReport();
    std::stringstream ss;
    writeProfileJson(ss, "fig13", original, /*runs=*/147);
    const prof::ProfileReport parsed = prof::ProfileReport::fromJson(ss);
    ASSERT_EQ(parsed.sites.size(), original.sites.size());
    for (std::size_t i = 0; i < original.sites.size(); ++i)
        EXPECT_TRUE(parsed.sites[i] == original.sites[i]) << i;
}

#if FUSE_PROF_ENABLED

// ---- ON build: macro-driven counters and simulator cross-checks. ----

TEST(ProfMacros, CountAndAddAreExact)
{
    const prof::ProfileReport before = prof::snapshot();
    for (int i = 0; i < 5; ++i)
        FUSE_PROF_COUNT(test_macro, counted);
    for (std::uint64_t n = 1; n <= 4; ++n)
        FUSE_PROF_ADD(test_macro, added, n);
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    EXPECT_EQ(delta.count("test_macro", "counted"), 5u);
    EXPECT_EQ(delta.count("test_macro", "added"), 10u);
}

/**
 * The load-bearing exactness check: a real (reduced-scale) simulation's
 * profile must agree with counters the simulator maintains through the
 * completely independent StatGroup layer, and with the structural
 * identity that every bank consult performs exactly one tag search.
 */
TEST(ProfSimulator, RunProfileMatchesIndependentStats)
{
    SimConfig config = SimConfig::fermi();
    config.gpu.instructionBudgetPerSm = 20000;
    Simulator sim(config);
    const prof::ProfileReport before = prof::snapshot();
    const Metrics m = sim.run("ATAX", L1DKind::DyFuse);
    const prof::ProfileReport outer = prof::snapshot().diffSince(before);

    const prof::ProfileReport &p = m.profile;
    EXPECT_GT(p.sites.size(), 0u);

    // Every TagArray lookup is attributable: the L1D banks' demand,
    // fill, peek, and invalidate resolutions plus the L2's bank accesses
    // (whose accessAndFill resolves residency exactly once) partition
    // the total.
    const std::uint64_t attributed =
        p.count("l1d_bank", "demand_resolutions")
        + p.count("l1d_bank", "fill_resolutions")
        + p.count("l1d_bank", "peek_resolutions")
        + p.count("l1d_bank", "invalidate_resolutions")
        + p.count("l2", "bank_accesses");
    EXPECT_EQ(p.count("tag_array", "lookups"), attributed);
    EXPECT_GT(attributed, 0u);

    // Off-chip traffic: the hierarchy's StatGroup "requests" scalar
    // counts demand accesses and writebacks alike; the profile splits
    // them. Metrics::offchipRequests reads that scalar.
    EXPECT_EQ(p.count("mem", "offchip_requests")
                  + p.count("mem", "offchip_writebacks"),
              m.offchipRequests);

    // One sim/run timer scope per run. The scope closes when run()
    // returns — after the in-run snapshot that built m.profile — so it
    // is visible only in the outer snapshot pair, with the nested
    // gpu/run scope debited from its exclusive time.
    EXPECT_EQ(p.find("sim", "run"), nullptr);
    const prof::SiteSample &run_scope = sampleOf(outer, "sim", "run");
    EXPECT_EQ(run_scope.timedScopes, 1u);
    EXPECT_GE(run_scope.inclusiveNs, run_scope.exclusiveNs);
    EXPECT_EQ(sampleOf(outer, "gpu", "run").timedScopes, 1u);

    // The run generated work at every instrumented layer.
    EXPECT_GT(p.count("workload", "instructions"), 0u);
    EXPECT_GT(p.count("scheduler", "picks"), 0u);
    EXPECT_GT(p.count("gpu", "sm_ticks"), 0u);
    EXPECT_GT(p.count("dram", "services"), 0u);
}

TEST(ProfSimulator, MshrProfileMatchesMshrStats)
{
    SimConfig config = SimConfig::fermi();
    config.gpu.instructionBudgetPerSm = 20000;
    Simulator sim(config);
    const prof::ProfileReport before = prof::snapshot();
    const Metrics m = sim.run("BICG", L1DKind::L1Sram);
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    // Structural invariants the MSHR cannot violate: every allocation is
    // backed by a demand off-chip request (bypasses and writebacks go
    // off chip without allocating), and nothing retires that was never
    // allocated.
    EXPECT_GT(delta.count("mshr", "allocations"), 0u);
    EXPECT_LE(delta.count("mshr", "allocations"),
              delta.count("mem", "offchip_requests"));
    EXPECT_LE(delta.count("mshr", "retirements"),
              delta.count("mshr", "allocations"));
    EXPECT_GT(delta.count("mshr", "probes"), 0u);
    (void)m;
}

/**
 * Presence-filter site identities: the consult-elision gates (cache/
 * presence.hh) partition gated lookups into definite-miss skips plus
 * actual structure consults, and the filters are maintained in exact
 * lockstep with the structures they summarise.
 */
TEST(ProfSimulator, PresenceFilterSitesConsistent)
{
    SimConfig config = SimConfig::fermi();
    config.gpu.instructionBudgetPerSm = 20000;
    Simulator sim(config);
    const prof::ProfileReport before = prof::snapshot();
    const Metrics m = sim.run("ATAX", L1DKind::L1Sram);
    const prof::ProfileReport p = prof::snapshot().diffSince(before);

    // MSHR gate: map consults = probes - filter_skips; maintenance
    // mirrors the entry file (allocate inserts; retire paths remove).
    EXPECT_GT(p.count("mshr", "probes"), 0u);
    EXPECT_GT(p.count("mshr", "filter_skips"), 0u);
    EXPECT_LE(p.count("mshr", "filter_skips"), p.count("mshr", "probes"));
    EXPECT_EQ(p.count("mshr", "filter_inserts"),
              p.count("mshr", "allocations"));
    EXPECT_LE(p.count("mshr", "filter_removes"),
              p.count("mshr", "filter_inserts"));
    EXPECT_GE(p.count("mshr", "filter_removes"),
              p.count("mshr", "retirements"));

    // SRAM-bank gate: the pure-SRAM organisation has only filtered
    // banks, so its gated demand lookups partition exactly into skips
    // plus actual tag consults (the demand_resolutions term of the
    // tag_array/lookups identity above).
    EXPECT_GT(p.count("l1d_sram", "lookups"), 0u);
    EXPECT_GT(p.count("l1d_sram", "filter_skips"), 0u);
    EXPECT_EQ(p.count("l1d_sram", "lookups"),
              p.count("l1d_sram", "filter_skips")
                  + p.count("l1d_bank", "demand_resolutions"));
    EXPECT_GT(p.count("l1d_sram", "filter_inserts"), 0u);
    EXPECT_LE(p.count("l1d_sram", "filter_removes"),
              p.count("l1d_sram", "filter_inserts"));
    (void)m;
}

/**
 * Sweep totals are exact at any pool size: counters are process-global
 * atomics, so a 4-worker sweep must count every site exactly as often
 * as a serial sweep of the same spec (fuse_sweep --profile-out relies
 * on this for its totals).
 */
TEST(ProfSweep, TotalsDoNotDependOnThreadCount)
{
    const ExperimentSpec spec = ExperimentSpec::parse(
        "base: test\n"
        "benchmarks: ATAX, BICG\n"
        "kinds: L1-SRAM, Dy-FUSE\n");
    const auto sweepProfile = [&spec](unsigned threads) {
        const prof::ProfileReport before = prof::snapshot();
        SweepRunner(threads).run(spec);
        return prof::snapshot().diffSince(before);
    };
    const prof::ProfileReport serial = sweepProfile(1);
    const prof::ProfileReport pooled = sweepProfile(4);

    EXPECT_GT(serial.count("workload", "instructions"), 0u);
    EXPECT_GT(serial.count("tag_array", "lookups"), 0u);
    for (const auto &s : serial.sites)
        EXPECT_EQ(pooled.count(s.component, s.name), s.count)
            << s.component << "/" << s.name;
    for (const auto &s : pooled.sites)
        EXPECT_EQ(serial.count(s.component, s.name), s.count)
            << s.component << "/" << s.name;
}

#else // !FUSE_PROF_ENABLED

// ---- OFF build: the macros must be true no-ops. ---------------------

TEST(ProfMacros, OffBuildMacrosAreTrueNoOps)
{
    // The OFF expansions discard their arguments untokenized, so these
    // compile even though the arguments are not valid expressions — the
    // strongest possible statement that a disabled site costs nothing.
    FUSE_PROF_COUNT(no such component, no such site);
    FUSE_PROF_ADD(bogus, site, this_identifier_does_not_exist);
    FUSE_PROF_SCOPE(neither, does_this_one);

    // And nothing registers: a disabled build's simulator runs register
    // no hot-path sites, so snapshots hold only test-created sites.
    const prof::ProfileReport before = prof::snapshot();
    FUSE_PROF_COUNT(test_noop, would_count);
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    EXPECT_EQ(delta.count("test_noop", "would_count"), 0u);
    EXPECT_EQ(delta.find("test_noop", "would_count"), nullptr);
}

TEST(ProfSimulator, OffBuildRunYieldsEmptyProfile)
{
    SimConfig config = SimConfig::fermi();
    config.gpu.instructionBudgetPerSm = 2000;
    Simulator sim(config);
    const Metrics m = sim.run("ATAX", L1DKind::L1Sram);
    EXPECT_TRUE(m.profile.sites.empty());
}

#endif // FUSE_PROF_ENABLED

} // namespace
} // namespace fuse
