#include "exp/result_set.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace fuse
{

double
geomean(const std::vector<double> &values)
{
    // The empty-vector guard is load-bearing: exp(0/0) is NaN, and a NaN
    // here poisons every normalised figure column built on top of the
    // mean (regression-guarded by test_exp's GeomeanEmptyIsZero /
    // GeomeanNeverNan).
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(std::max(v, 1e-12));
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

namespace
{

/** Fatal when @p values, the @p axis of grid @p grid, repeat a value. */
void
requireDistinct(const std::string &grid, const char *axis,
                const std::vector<std::string> &values)
{
    for (auto it = values.begin(); it != values.end(); ++it)
        if (std::find(values.begin(), it, *it) != it)
            fuse_fatal("'%s' names %s '%s' twice", grid.c_str(), axis,
                       it->c_str());
}

} // namespace

ResultSet::ResultSet(std::string name, std::vector<std::string> benchmarks,
                     std::vector<L1DKind> kinds,
                     std::vector<std::string> variant_labels)
    : name_(std::move(name)), benchmarks_(std::move(benchmarks)),
      kinds_(std::move(kinds)), variantLabels_(std::move(variant_labels))
{
    std::vector<std::string> kind_names;
    for (L1DKind kind : kinds_)
        kind_names.push_back(toString(kind));
    requireDistinct(name_, "benchmark", benchmarks_);
    requireDistinct(name_, "kind", kind_names);
    requireDistinct(name_, "variant", variantLabels_);
    if (variantLabels_.empty())
        variantLabels_.push_back("");
    runs_.reserve(benchmarks_.size() * variantLabels_.size()
                  * kinds_.size());
    for (const std::string &benchmark : benchmarks_)
        for (std::size_t v = 0; v < variantLabels_.size(); ++v)
            for (L1DKind kind : kinds_)
                runs_.push_back({benchmark, kind, v, variantLabels_[v],
                                 Metrics{}, false});
}

std::size_t
ResultSet::index(std::size_t b, std::size_t v, std::size_t k) const
{
    return (b * variantLabels_.size() + v) * kinds_.size() + k;
}

const RunResult *
ResultSet::find(const std::string &benchmark, L1DKind kind,
                std::size_t variant) const
{
    const auto b = std::find(benchmarks_.begin(), benchmarks_.end(),
                             benchmark);
    const auto k = std::find(kinds_.begin(), kinds_.end(), kind);
    if (b == benchmarks_.end() || k == kinds_.end()
        || variant >= variantLabels_.size())
        return nullptr;
    const RunResult &run =
        runs_[index(static_cast<std::size_t>(b - benchmarks_.begin()),
                    variant,
                    static_cast<std::size_t>(k - kinds_.begin()))];
    return run.valid ? &run : nullptr;
}

const Metrics &
ResultSet::metrics(const std::string &benchmark, L1DKind kind,
                   std::size_t variant) const
{
    const RunResult *run = find(benchmark, kind, variant);
    if (!run)
        fuse_fatal("ResultSet '%s' has no run for (%s, %s, variant %zu)",
                   name_.c_str(), benchmark.c_str(), toString(kind),
                   variant);
    return run->metrics;
}

} // namespace fuse
