/**
 * @file
 * First-party exact consult counts, attributed to simulator components
 * instead of source lines. gprof mispriced two perf PRs in a row
 * through mcount inflation; both were rescued by hand-inserted exact
 * counters. This layer makes those counters permanent and queryable.
 *
 * Scope: a site counts simulator work that no statistic records — SM
 * ticks, scheduler picks and wakes, tag lookups, bank resolutions,
 * presence-filter skips, MSHR probes and retirements, retried L1D
 * calls. What the simulated machine does (requests, writebacks, DRAM
 * services, MSHR allocations) is counted once, by the components'
 * StatGroups, and checked by the conservation identities in
 * tests/test_gpu.cc; host time is measured by perfbench --trace.
 *
 * Gating: FUSE_PROF_COUNT compiles to a true no-op (arguments discarded
 * untokenized) unless the library is built with the FUSE_PROF CMake
 * option, so the default build pays nothing — not even argument
 * evaluation. The registry/report API below the macro is always
 * compiled, so reports can be built and written in either
 * configuration; in an OFF build the registry simply never sees a
 * hot-path site.
 *
 * Threading: counters are relaxed atomics and site registration takes a
 * mutex, so the sweep thread pool can count concurrently and a sweep's
 * totals are exact at any worker count (what fuse_sweep --profile-out
 * reports).
 */

#ifndef FUSE_PROF_PROF_HH
#define FUSE_PROF_PROF_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

/** 1 when the measurement macro is live (FUSE_PROF=ON build). */
#if defined(FUSE_PROF) && FUSE_PROF
#define FUSE_PROF_ENABLED 1
#else
#define FUSE_PROF_ENABLED 0
#endif

namespace fuse
{
namespace prof
{

/** True when the measurement macro was compiled in. */
constexpr bool
enabled()
{
    return FUSE_PROF_ENABLED != 0;
}

/**
 * One named measurement site: a (component, name) pair accumulating an
 * event count. Sites live forever in the process-global registry, so
 * the references the macro caches in function-local statics stay valid.
 */
class Site
{
  public:
    Site(std::string component, std::string name)
        : component_(std::move(component)), name_(std::move(name))
    {}

    Site(const Site &) = delete;
    Site &operator=(const Site &) = delete;

    /** Count @p n events (the hot path: one relaxed fetch_add). */
    void add(std::uint64_t n)
    {
        count_.fetch_add(n, std::memory_order_relaxed);
    }

    const std::string &component() const { return component_; }
    const std::string &name() const { return name_; }
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

  private:
    std::string component_;
    std::string name_;
    std::atomic<std::uint64_t> count_{0};
};

/**
 * Fetch (or create) the site for @p component / @p name. Takes the
 * registry mutex; hot paths go through FUSE_PROF_COUNT, which calls
 * this once per site and caches the reference.
 */
Site &site(const char *component, const char *name);

/** One site's count frozen at snapshot time. */
struct SiteSample
{
    std::string component;
    std::string name;
    std::uint64_t count = 0;
};

/**
 * A frozen per-component attribution: every registered site's count,
 * sorted by (component, name) so reports are deterministic regardless
 * of which code path registered a site first.
 */
struct ProfileReport
{
    std::vector<SiteSample> sites;

    /** Sample for @p component / @p name, nullptr when absent. */
    const SiteSample *find(const std::string &component,
                           const std::string &name) const;

    /** Count of @p component / @p name (0 when the site is absent). */
    std::uint64_t count(const std::string &component,
                        const std::string &name) const;

    /**
     * Per-phase attribution: this report (the "after" snapshot) minus
     * @p before, site-wise. Sites absent from @p before keep their full
     * counts; sites whose delta is zero are dropped, so a phase report
     * lists exactly what the phase touched. Exact only when nothing
     * else counts in between, or over a whole sweep.
     */
    ProfileReport diffSince(const ProfileReport &before) const;
};

/** Freeze every registered site's current count. */
ProfileReport snapshot();

} // namespace prof
} // namespace fuse

/*
 * The measurement macro. Component and site are bare identifiers, not
 * strings — they are stringized in the ON build and discarded without
 * expansion in the OFF build, so an OFF-build call site costs nothing
 * and requires nothing of its arguments (the no-op contract
 * tests/test_prof.cc compiles against).
 *
 *   FUSE_PROF_COUNT(l1d_bank, demand_resolutions);
 *
 * The ON-build expansion caches the Site reference in a function-local
 * static, so the steady-state cost of a counter is one initialization
 * guard check plus one relaxed fetch_add.
 */
#if FUSE_PROF_ENABLED

#define FUSE_PROF_COUNT(component, site_name)                            \
    do {                                                                 \
        static ::fuse::prof::Site &fuse_prof_site_ =                     \
            ::fuse::prof::site(#component, #site_name);                  \
        fuse_prof_site_.add(1);                                          \
    } while (0)

#else // !FUSE_PROF_ENABLED

#define FUSE_PROF_COUNT(component, site_name) do { } while (0)

#endif // FUSE_PROF_ENABLED

#endif // FUSE_PROF_PROF_HH
