/**
 * @file
 * ResultSet: the ordered (benchmark x variant x L1D-kind) result grid one
 * SweepRunner execution produces, plus the geometric and arithmetic
 * means every figure shares (lifted out of sim/report so presentation
 * code and exporters use one implementation).
 */

#ifndef FUSE_EXP_RESULT_SET_HH
#define FUSE_EXP_RESULT_SET_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/metrics.hh"

namespace fuse
{

/** Geometric mean of positive values (zeros are clamped to epsilon). */
double geomean(const std::vector<double> &values);

/** Arithmetic mean (empty input yields 0). */
double mean(const std::vector<double> &values);

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

/**
 * The dense result grid of one experiment. Cells are addressed by
 * (benchmark, variant, kind) and stored in a deterministic flat order —
 * benchmark-major, then variant, then kind — independent of the thread
 * schedule that produced them. The constructor names every cell, and is
 * fatal when an axis holds one value twice; a cell turns valid once its
 * metrics are filled.
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

  private:
    std::string name_;
    std::vector<std::string> benchmarks_;
    std::vector<L1DKind> kinds_;
    std::vector<std::string> variantLabels_;
    std::vector<RunResult> runs_;
};

} // namespace fuse

#endif // FUSE_EXP_RESULT_SET_HH
