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

std::vector<double>
normalizeTo(const std::vector<double> &values,
            const std::vector<double> &baseline)
{
    if (values.size() != baseline.size())
        fuse_fatal("normalizeTo: series sizes differ (%zu vs %zu)",
                   values.size(), baseline.size());
    std::vector<double> out(values.size(), 0.0);
    for (std::size_t i = 0; i < values.size(); ++i)
        out[i] = baseline[i] != 0.0 ? values[i] / baseline[i] : 0.0;
    return out;
}

ResultSet::ResultSet(std::string name, std::vector<std::string> benchmarks,
                     std::vector<L1DKind> kinds,
                     std::vector<std::string> variant_labels)
    : name_(std::move(name)), benchmarks_(std::move(benchmarks)),
      kinds_(std::move(kinds)), variantLabels_(std::move(variant_labels))
{
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

std::vector<double>
ResultSet::series(L1DKind kind, const MetricGetter &get,
                  std::size_t variant) const
{
    std::vector<double> out;
    out.reserve(benchmarks_.size());
    for (const auto &b : benchmarks_)
        out.push_back(get(metrics(b, kind, variant)));
    return out;
}

std::vector<double>
ResultSet::normalizedSeries(L1DKind kind, L1DKind baseline_kind,
                            const MetricGetter &get, std::size_t variant,
                            std::size_t baseline_variant) const
{
    return normalizeTo(series(kind, get, variant),
                       series(baseline_kind, get, baseline_variant));
}

void
ResultSet::merge(const ResultSet &other)
{
    if (name_ != other.name_ || benchmarks_ != other.benchmarks_
        || kinds_ != other.kinds_ || variantLabels_ != other.variantLabels_)
        fuse_fatal("ResultSet::merge: incompatible grids ('%s' vs '%s')",
                   name_.c_str(), other.name_.c_str());
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        if (!other.runs_[i].valid)
            continue;
        if (runs_[i].valid)
            fuse_fatal("ResultSet::merge: cell %zu (%s, %s) filled by "
                       "both sides — overlapping shards?",
                       i, other.runs_[i].benchmark.c_str(),
                       toString(other.runs_[i].kind));
        runs_[i] = other.runs_[i];
    }
}

} // namespace fuse
