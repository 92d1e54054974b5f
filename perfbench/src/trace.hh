/**
 * @file
 * In-memory span recorder for the benchmark's traced pass. A span is one
 * timed call into a simulator layer: name, start, end, the span that
 * caused it (its parent) and the run it belongs to. Spans are kept in
 * memory while the pass runs and written out once at the end, so the
 * only cost inside a timed region is two clock reads and one append.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - start).count();
}

inline double
msSince(Clock::time_point start)
{
    return msBetween(start, Clock::now());
}

/** One closed span. Times are nanoseconds since the tracer's epoch. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: no parent.
    std::uint64_t run = 0;     ///< Cell or drive the span belongs to.
    std::string name;          ///< "<layer>.<call>", e.g. "gpu.run".
    std::uint32_t thread = 0;  ///< Small per-process thread index.
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/** Self time of one layer: its spans' durations minus their children's. */
struct LayerTime
{
    std::size_t spans = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

/** Thread-safe span store. */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Reserve a span id (ids are never 0). */
    std::uint64_t nextId();

    /** Store a closed span timed by the caller. */
    void record(std::uint64_t id, std::uint64_t parent, std::uint64_t run,
                const char *name, Clock::time_point start,
                Clock::time_point end);

    /** Spans recorded so far (call once the recording threads joined). */
    const std::vector<Span> &spans() const { return spans_; }

    /** Per-layer self time, keyed by the span name up to its first '.'. */
    std::map<std::string, LayerTime> layerTimes() const;

    /** Write every span as one JSON document. */
    void writeJson(std::ostream &os, const std::string &workload,
                   std::uint64_t seed) const;

  private:
    Clock::time_point epoch_;
    std::mutex mutex_;
    std::uint64_t lastId_ = 0;   // Guarded by mutex_.
    std::vector<Span> spans_;    // Guarded by mutex_.
};

/**
 * RAII span: opens at construction, records at destruction. The parent
 * defaults to the innermost span open on the calling thread; pass an
 * explicit parent when the causing span lives on another thread.
 */
class ScopedSpan
{
  public:
    static constexpr std::uint64_t kInherit = ~std::uint64_t(0);

    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t run,
               std::uint64_t parent = kInherit);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    const char *name_;
    std::uint64_t run_;
    std::uint64_t id_;
    std::uint64_t parent_;
    std::uint64_t outer_;   ///< Thread's innermost span before this one.
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
