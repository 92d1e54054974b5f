/**
 * @file
 * A small statistics framework: named scalar counters, averages, and
 * distributions that register themselves with a StatGroup and can be dumped
 * in one call. Modelled loosely on gem5's stats package, but header-light.
 */

#ifndef FUSE_COMMON_STATS_HH
#define FUSE_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace fuse
{

/**
 * A flat collection of named statistics. Components own a StatGroup (or
 * share their parent's) and create counters through it; the group can render
 * every stat to a stream and merge with sibling groups.
 *
 * Handle stability: references returned by scalar()/average() stay valid
 * and live for the lifetime of the group (node-based map storage — later
 * insertions never move existing stats, and merge() updates values in
 * place). Components on the simulation hot path are expected to fetch
 * their counters once at construction and increment through the cached
 * handle; a string-keyed scalar("...") lookup per cache access is exactly
 * the overhead this framework must not impose.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /**
     * Increment-only event or cycle count. The count is a u64, so an
     * increment on the hot path is one integer add; value() returns it
     * as a double, exact below 2^53, which no simulator stat reaches.
     */
    class Scalar
    {
      public:
        void operator++() { ++count_; }
        void operator++(int) { ++count_; }
        /** Bulk event/cycle-count add. */
        void add(std::uint64_t n) { count_ += n; }
        double value() const { return static_cast<double>(count_); }
        /** Fold another scalar into this one (exact). */
        void merge(const Scalar &other) { count_ += other.count_; }

      private:
        std::uint64_t count_ = 0;
    };

    /** Running average (sum / count). */
    class Average
    {
      public:
        void sample(double v) { sum_ += v; ++count_; }
        double mean() const { return count_ ? sum_ / count_ : 0.0; }
        std::uint64_t count() const { return count_; }
        double sum() const { return sum_; }
        /** Fold another average into this one (exact: sums and counts add). */
        void merge(const Average &other)
        {
            sum_ += other.sum_;
            count_ += other.count_;
        }

      private:
        double sum_ = 0.0;
        std::uint64_t count_ = 0;
    };

    /** Create (or fetch) a scalar stat with @p name. */
    Scalar &scalar(const std::string &name);
    /** Create (or fetch) an average stat with @p name. */
    Average &average(const std::string &name);

    /** Value of a scalar (0 if absent — convenient for optional stats). */
    double get(const std::string &name) const;

    /** Read-only lookup of an average; nullptr if absent. Unlike
     *  average(), never creates the stat, so it is const-safe for
     *  reporting code. */
    const Average *findAverage(const std::string &name) const;

    /** Add every scalar/average of @p other into this group. */
    void merge(const StatGroup &other);

    /** Print "group.stat value" lines. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    // std::map keeps deterministic dump order.
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, Average> averages_;
};

} // namespace fuse

#endif // FUSE_COMMON_STATS_HH
