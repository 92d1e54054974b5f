/**
 * @file
 * Tests for the exact profiling layer (src/prof): counter exactness
 * against hand-computed workloads, report semantics, the exact text of
 * the --profile-out document, consult-count identities on real runs,
 * and the OFF build's no-op macro contract. The registry/report API is
 * compiled in both configurations, so most of the file runs either way;
 * the macro-driven, simulator and sweep thread-count suites are gated
 * on FUSE_PROF_ENABLED.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "exp/experiment.hh"
#include "exp/export.hh"
#include "exp/sweep_runner.hh"
#include "gpu/gpu.hh"
#include "prof/prof.hh"
#include "sim/simulator.hh"

namespace fuse
{
namespace
{

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

/**
 * The --profile-out document, byte for byte: tools/ci/compare_profile.py
 * reads "experiment", "prof_enabled", "profile.runs" and each site's
 * component, name and exact integer count from exactly this text.
 */
TEST(ProfReport, ProfileDocumentTextIsExact)
{
    prof::ProfileReport r;
    r.sites.push_back({"l1d_bank", "demand_resolutions", 1987585});
    r.sites.push_back({"tag_array", "lookups", 2783707});
    std::ostringstream os;
    writeProfileJson(os, "fig13", r, /*runs=*/14);
    const std::string enabled = prof::enabled() ? "true" : "false";
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"experiment\": \"fig13\",\n"
              "  \"prof_enabled\": " + enabled + ",\n"
              "  \"profile\":\n"
              "  {\n"
              "    \"runs\": 14,\n"
              "    \"sites\": [\n"
              "      {\"component\": \"l1d_bank\", \"name\": "
              "\"demand_resolutions\", \"count\": 1987585, "
              "\"count_per_run\": 141970},\n"
              "      {\"component\": \"tag_array\", \"name\": \"lookups\", "
              "\"count\": 2783707, \"count_per_run\": 198836}\n"
              "    ]\n"
              "  }\n"
              "}\n");
}

#if FUSE_PROF_ENABLED

// ---- ON build: macro-driven counters and simulator identities. ------

TEST(ProfMacros, CountIsExact)
{
    const prof::ProfileReport before = prof::snapshot();
    for (int i = 0; i < 5; ++i)
        FUSE_PROF_COUNT(test_macro, counted);
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    EXPECT_EQ(delta.count("test_macro", "counted"), 5u);
}

/** A reduced-scale configuration; runs are single-threaded, so a
 *  snapshot pair around one sees that run alone. */
SimConfig
profiledConfig()
{
    SimConfig config = SimConfig::fermi();
    config.gpu.instructionBudgetPerSm = 20000;
    return config;
}

/**
 * Every TagArray lookup is attributable: the L1D banks' demand and fill
 * resolutions plus one L2 bank access per off-chip request
 * (accessAndFill resolves residency exactly once) partition the total.
 * The L2 term is the hierarchy's own request statistic.
 */
TEST(ProfSimulator, TagLookupsAreBankResolutionsPlusOffchipRequests)
{
    const prof::ProfileReport before = prof::snapshot();
    const Metrics m =
        Simulator(profiledConfig()).run("ATAX", L1DKind::DyFuse);
    const prof::ProfileReport p = prof::snapshot().diffSince(before);
    const std::uint64_t resolutions =
        p.count("l1d_bank", "demand_resolutions")
        + p.count("l1d_bank", "fill_resolutions");
    EXPECT_GT(resolutions, 0u);
    EXPECT_GT(m.offchipRequests, 0u);
    EXPECT_EQ(p.count("tag_array", "lookups"),
              resolutions + m.offchipRequests);

    // The run did work at every instrumented layer.
    EXPECT_GT(p.count("workload", "instructions"), 0u);
    EXPECT_GT(p.count("scheduler", "picks"), 0u);
    EXPECT_GT(p.count("gpu", "sm_ticks"), 0u);
}

/**
 * Presence-filter site identities: the consult-elision gates (cache/
 * presence.hh) partition gated lookups into definite-miss skips plus
 * actual structure consults, and the SRAM bank filters are maintained
 * in lockstep with the tag arrays they summarise.
 */
TEST(ProfSimulator, PresenceFilterSitesConsistent)
{
    const SimConfig config = profiledConfig();
    const prof::ProfileReport before = prof::snapshot();
    Gpu gpu(config.gpu, L1DKind::L1Sram, config.l1d,
            benchmarkByName("ATAX"));
    gpu.run();
    const prof::ProfileReport p = prof::snapshot().diffSince(before);

    // MSHR gate: map consults = probes - filter_skips. Nothing retires
    // that was never allocated.
    EXPECT_GT(p.count("mshr", "probes"), 0u);
    EXPECT_GT(p.count("mshr", "filter_skips"), 0u);
    EXPECT_LE(p.count("mshr", "filter_skips"), p.count("mshr", "probes"));
    EXPECT_GT(p.count("mshr", "retirements"), 0u);
    EXPECT_LE(static_cast<double>(p.count("mshr", "retirements")),
              gpu.sumL1dStat("mshr_allocated"));

    // SRAM-bank gate: the pure-SRAM organisation has only filtered
    // banks, so its gated demand lookups partition exactly into skips
    // plus actual tag consults (the demand_resolutions term of the
    // tag_array/lookups identity above).
    EXPECT_GT(p.count("l1d_sram", "lookups"), 0u);
    EXPECT_GT(p.count("l1d_sram", "filter_skips"), 0u);
    EXPECT_EQ(p.count("l1d_sram", "lookups"),
              p.count("l1d_sram", "filter_skips")
                  + p.count("l1d_bank", "demand_resolutions"));
    // Filter maintenance: a fill into a missed slot inserts, and an
    // eviction or invalidation removes, so removes never exceed
    // inserts.
    EXPECT_GT(p.count("l1d_sram", "filter_inserts"), 0u);
    EXPECT_LE(p.count("l1d_sram", "filter_removes"),
              p.count("l1d_sram", "filter_inserts"));
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

// ---- OFF build: the macro must be a true no-op. ---------------------

TEST(ProfMacros, OffBuildMacrosAreTrueNoOps)
{
    // The OFF expansion discards its arguments untokenized, so this
    // compiles even though the arguments are not valid identifiers —
    // the strongest possible statement that a disabled site costs
    // nothing.
    FUSE_PROF_COUNT(no such component, no such site);

    const prof::ProfileReport before = prof::snapshot();
    FUSE_PROF_COUNT(test_noop, would_count);
    const prof::ProfileReport delta = prof::snapshot().diffSince(before);
    EXPECT_EQ(delta.count("test_noop", "would_count"), 0u);
    EXPECT_EQ(delta.find("test_noop", "would_count"), nullptr);
}

TEST(ProfSimulator, OffBuildRunRegistersNoSite)
{
    SimConfig config = SimConfig::fermi();
    config.gpu.instructionBudgetPerSm = 2000;
    const std::size_t registered = prof::snapshot().sites.size();
    Simulator(config).run("ATAX", L1DKind::L1Sram);
    EXPECT_EQ(prof::snapshot().sites.size(), registered);
}

#endif // FUSE_PROF_ENABLED

} // namespace
} // namespace fuse
