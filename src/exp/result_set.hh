/**
 * @file
 * ResultSet: the ordered (benchmark x variant x L1D-kind) result grid one
 * SweepRunner execution produces, plus the aggregation helpers every
 * figure shares — geometric/arithmetic means and series normalisation
 * (lifted out of sim/report so presentation code and exporters use one
 * implementation).
 */

#ifndef FUSE_EXP_RESULT_SET_HH
#define FUSE_EXP_RESULT_SET_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sim/metrics.hh"

namespace fuse
{

/** Geometric mean of positive values (zeros are clamped to epsilon). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (empty input yields 0). */
double mean(const std::vector<double> &values);

/** Element-wise @p values[i] / @p baseline[i] (0 where baseline is 0). */
std::vector<double> normalizeTo(const std::vector<double> &values,
                                const std::vector<double> &baseline);

/** One cell of the sweep grid; a ResultSet names every cell up front. */
struct RunResult
{
    std::string benchmark;
    L1DKind kind = L1DKind::L1Sram;
    std::size_t variant = 0;       ///< Index into variantLabels().
    std::string variantLabel;
    Metrics metrics;
    bool valid = false;            ///< Set once the metrics are filled.
};

/** Reads one double out of a Metrics record (for series extraction). */
using MetricGetter = std::function<double(const Metrics &)>;

/**
 * The dense result grid of one experiment. Cells are addressed by
 * (benchmark, variant, kind) and stored in a deterministic flat order —
 * benchmark-major, then variant, then kind — independent of the thread
 * schedule that produced them. The constructor names every cell; a
 * cell turns valid once its metrics are filled.
 */
class ResultSet
{
  public:
    ResultSet() = default;
    ResultSet(std::string name, std::vector<std::string> benchmarks,
              std::vector<L1DKind> kinds,
              std::vector<std::string> variant_labels);

    const std::string &name() const { return name_; }
    const std::vector<std::string> &benchmarks() const
    {
        return benchmarks_;
    }
    const std::vector<L1DKind> &kinds() const { return kinds_; }
    const std::vector<std::string> &variantLabels() const
    {
        return variantLabels_;
    }

    std::size_t size() const { return runs_.size(); }
    const std::vector<RunResult> &runs() const { return runs_; }

    /** Flat index of (benchmark @p b, variant @p v, kind @p k). */
    std::size_t index(std::size_t b, std::size_t v, std::size_t k) const;

    RunResult &at(std::size_t flat_index) { return runs_.at(flat_index); }
    const RunResult &at(std::size_t flat_index) const
    {
        return runs_.at(flat_index);
    }

    /** Locate a cell by value; nullptr when absent or not yet run. */
    const RunResult *find(const std::string &benchmark, L1DKind kind,
                          std::size_t variant = 0) const;

    /** Metrics of a cell that must exist (fatal otherwise). */
    const Metrics &metrics(const std::string &benchmark, L1DKind kind,
                           std::size_t variant = 0) const;

    /** @p get over every benchmark (in order) for one (kind, variant). */
    std::vector<double> series(L1DKind kind, const MetricGetter &get,
                               std::size_t variant = 0) const;

    /**
     * Per-benchmark ratio of (kind, variant) to (baseline_kind,
     * baseline_variant) under @p get — the normalised series every
     * "relative to L1-SRAM"-style figure plots.
     */
    std::vector<double> normalizedSeries(
        L1DKind kind, L1DKind baseline_kind, const MetricGetter &get,
        std::size_t variant = 0, std::size_t baseline_variant = 0) const;

    /**
     * Copy @p other's completed cells into this grid (campaign-scale
     * fan-out: each `fuse_sweep --shard i/N` invocation fills a disjoint
     * subset; merging the N shards reproduces the unsharded run cell for
     * cell). Fatal if the grids differ or a cell is filled twice.
     */
    void merge(const ResultSet &other);

  private:
    std::string name_;
    std::vector<std::string> benchmarks_;
    std::vector<L1DKind> kinds_;
    std::vector<std::string> variantLabels_;
    std::vector<RunResult> runs_;
};

} // namespace fuse

#endif // FUSE_EXP_RESULT_SET_HH
