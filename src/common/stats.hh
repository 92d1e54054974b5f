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
 * insertions never move existing stats, and merge()/reset() update values
 * in place). Components on the simulation hot path are expected to fetch
 * their counters once at construction and increment through the cached
 * handle; a string-keyed scalar("...") lookup per cache access is exactly
 * the overhead this framework must not impose.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /**
     * Increment-only scalar counter with an integer fast lane.
     *
     * Every simulator counter is an event or cycle count, and the old
     * all-double representation paid a float add (plus an int-to-double
     * conversion at most call sites) per increment — a measurable diffuse
     * cost at ~10 increments per L1D access. The value now lives in two
     * lanes whose semantics are:
     *
     *  - operator++ and add() accumulate into a u64 lane — the hot path.
     *  - operator+=(double) routes exactly-representable non-negative
     *    integral values (v == trunc(v), 0 <= v < 2^64) to the u64 lane
     *    and everything else (negative, non-integral, NaN, out of range)
     *    to a double fallback lane. The audit of all call sites found
     *    only integral cycle/event deltas; the fallback exists so the
     *    class stays a correct general-purpose scalar.
     *  - value() = double(u64 lane) + fallback lane. For pure-integer
     *    histories below 2^53 this is bit-exact with the historical
     *    double accumulation (IEEE-754 adds small integers exactly). A
     *    mixed history sums each lane in arrival order before combining;
     *    that can differ from the historical interleaved running sum
     *    only when a partial sum would have rounded (magnitudes near
     *    2^53), which no simulator stat reaches.
     *  - set() overwrites both lanes (the value lands in the fallback
     *    lane); reset() zeroes both; merging adds lane-wise (exact).
     */
    class Scalar
    {
      public:
        Scalar() = default;
        void operator++() { ++count_; }
        void operator++(int) { ++count_; }
        /** Integer fast lane: bulk event/cycle-count adds. */
        void add(std::uint64_t n) { count_ += n; }
        void operator+=(double v)
        {
            // 2^64 as a double; values at or past it (and negatives/NaN)
            // cannot take the integer lane.
            if (v >= 0.0 && v < 18446744073709551616.0) {
                const std::uint64_t n = static_cast<std::uint64_t>(v);
                if (static_cast<double>(n) == v) {
                    count_ += n;
                    return;
                }
            }
            rest_ += v;
        }
        void set(double v)
        {
            count_ = 0;
            rest_ = v;
        }
        double value() const { return static_cast<double>(count_) + rest_; }
        void reset()
        {
            count_ = 0;
            rest_ = 0.0;
        }
        /** Fold another scalar into this one lane-wise (exact). */
        void merge(const Scalar &other)
        {
            count_ += other.count_;
            rest_ += other.rest_;
        }

      private:
        std::uint64_t count_ = 0;  ///< Integer lane (the hot path).
        double rest_ = 0.0;        ///< Audited non-integral fallback.
    };

    /** Running average (sum / count). */
    class Average
    {
      public:
        void sample(double v) { sum_ += v; ++count_; }
        double mean() const { return count_ ? sum_ / count_ : 0.0; }
        std::uint64_t count() const { return count_; }
        double sum() const { return sum_; }
        void reset() { sum_ = 0.0; count_ = 0; }
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
    /** True if a scalar with @p name exists. */
    bool has(const std::string &name) const;

    /** Read-only lookup of an average; nullptr if absent. Unlike
     *  average(), never creates the stat, so it is const-safe for
     *  reporting code. */
    const Average *findAverage(const std::string &name) const;

    /** Add every scalar/average of @p other into this group. */
    void merge(const StatGroup &other);

    /** Reset all stats to zero. */
    void reset();

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
