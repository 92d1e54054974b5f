/**
 * @file
 * Profiling registry and report snapshots. See prof.hh for the
 * subsystem contract.
 */

#include "prof/prof.hh"

#include <algorithm>
#include <memory>
#include <mutex>
#include <tuple>

namespace fuse
{
namespace prof
{

namespace
{

/**
 * The process-global site registry. Sites are stored behind unique_ptr
 * so the references handed out by site() survive vector growth; a site
 * is never removed.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<Site>> sites;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

bool
sampleBefore(const SiteSample &a, const SiteSample &b)
{
    return std::tie(a.component, a.name) < std::tie(b.component, b.name);
}

} // namespace

Site &
site(const char *component, const char *name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto &s : r.sites) {
        if (s->component() == component && s->name() == name)
            return *s;
    }
    r.sites.push_back(std::unique_ptr<Site>(new Site(component, name)));
    return *r.sites.back();
}

ProfileReport
snapshot()
{
    Registry &r = registry();
    ProfileReport report;
    {
        std::lock_guard<std::mutex> lock(r.mutex);
        report.sites.reserve(r.sites.size());
        for (const auto &s : r.sites)
            report.sites.push_back({s->component(), s->name(), s->count()});
    }
    std::sort(report.sites.begin(), report.sites.end(), sampleBefore);
    return report;
}

const SiteSample *
ProfileReport::find(const std::string &component,
                    const std::string &name) const
{
    for (const SiteSample &s : sites) {
        if (s.component == component && s.name == name)
            return &s;
    }
    return nullptr;
}

std::uint64_t
ProfileReport::count(const std::string &component,
                     const std::string &name) const
{
    const SiteSample *s = find(component, name);
    return s ? s->count : 0;
}

ProfileReport
ProfileReport::diffSince(const ProfileReport &before) const
{
    ProfileReport delta;
    for (const SiteSample &after : sites) {
        SiteSample d = after;
        if (const SiteSample *b = before.find(after.component, after.name))
            d.count -= std::min(b->count, d.count);
        if (d.count == 0)
            continue;
        delta.sites.push_back(std::move(d));
    }
    return delta;
}

} // namespace prof
} // namespace fuse
