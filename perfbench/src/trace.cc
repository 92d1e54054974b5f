#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** Innermost open ScopedSpan on this thread (0: none). */
thread_local std::uint64_t tl_current = 0;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ++lastId_;
}

void
Tracer::record(std::uint64_t id, std::uint64_t parent, std::uint64_t run,
               const char *name, Clock::time_point start,
               Clock::time_point end)
{
    Span span;
    span.id = id;
    span.parent = parent;
    span.run = run;
    span.name = name;
    span.thread = threadIndex();
    span.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       start - epoch_).count();
    span.endNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     end - epoch_).count();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::map<std::string, LayerTime>
Tracer::layerTimes() const
{
    // Children may run concurrently (sweep workers), so a span's covered
    // time is the union of its children's intervals, not their sum.
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                            std::int64_t>>>
        children;
    for (const Span &s : spans_) {
        if (s.parent)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::map<std::string, LayerTime> layers;
    for (const Span &s : spans_) {
        LayerTime &layer = layers[s.name.substr(0, s.name.find('.'))];
        ++layer.spans;
        layer.totalMs += s.ms();
        std::int64_t covered = 0;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            auto intervals = it->second;
            std::sort(intervals.begin(), intervals.end());
            std::int64_t reach = s.startNs;
            for (auto [start, end] : intervals) {
                start = std::max(start, reach);
                end = std::min(end, s.endNs);
                if (end > start) {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        layer.selfMs += s.ms() - static_cast<double>(covered) / 1e6;
    }
    return layers;
}

void
Tracer::writeJson(std::ostream &os, const std::string &workload,
                  std::uint64_t seed) const
{
    os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
       << ", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"run\": " << s.run
           << ", \"name\": \"" << s.name << "\", \"thread\": " << s.thread
           << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
           << "}";
    }
    os << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer &tracer, const char *name, std::uint64_t run,
                       std::uint64_t parent)
    : tracer_(tracer), name_(name), run_(run), id_(tracer.nextId()),
      parent_(parent == kInherit ? tl_current : parent),
      outer_(tl_current)
{
    tl_current = id_;
    start_ = Clock::now();
}

ScopedSpan::~ScopedSpan()
{
    const Clock::time_point end = Clock::now();
    tl_current = outer_;
    tracer_.record(id_, parent_, run_, name_, start_, end);
}

} // namespace perfbench
