#include "trace.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench
{

int
Tracer::begin(std::string name, int parent)
{
    const int thread = static_cast<int>(
        std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000);
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now, now, parent, thread});
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int id)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

std::size_t
Tracer::mark() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::map<std::string, double>
Tracer::selfMillis(std::size_t from, std::size_t to) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    using Interval = std::pair<Clock::time_point, Clock::time_point>;
    std::map<std::size_t, std::vector<Interval>> children;
    for (std::size_t i = from; i < to; ++i) {
        const Span &span = spans_[i];
        if (span.parent >= 0 &&
            static_cast<std::size_t>(span.parent) >= from)
            children[static_cast<std::size_t>(span.parent)].push_back(
                {span.start, span.end});
    }
    std::map<std::string, double> self;
    for (std::size_t i = from; i < to; ++i) {
        const Span &span = spans_[i];
        auto covered = std::chrono::steady_clock::duration::zero();
        auto it = children.find(i);
        if (it != children.end()) {
            // Union of the child intervals, clipped to the parent.
            std::vector<Interval> &kids = it->second;
            std::sort(kids.begin(), kids.end());
            Clock::time_point cursor = span.start;
            for (const Interval &kid : kids) {
                const auto lo = std::max(kid.first, cursor);
                const auto hi = std::min(kid.second, span.end);
                if (hi > lo) {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
        }
        self[span.name] += std::chrono::duration<double, std::milli>(
                               span.end - span.start - covered)
                               .count();
    }
    return self;
}

void
Tracer::writeChrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const double ts = std::chrono::duration<double, std::micro>(
                              span.start - origin_)
                              .count();
        const double dur = std::chrono::duration<double, std::micro>(
                               span.end - span.start)
                               .count();
        out << (i ? ",\n" : "") << "{\"name\": \"" << span.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
            << ", \"ts\": " << ts << ", \"dur\": " << dur
            << ", \"args\": {\"id\": " << i
            << ", \"parent\": " << span.parent << "}}";
    }
    out << "\n]}\n";
}

void
PassTracer::onPassBegin(const std::string &, const dcmbqc::Pass &pass)
{
    open_ = tracer_.begin(std::string("pass.") + pass.name(), parent_);
}

void
PassTracer::onPassEnd(const std::string &, const dcmbqc::Pass &,
                      const dcmbqc::StageReport &)
{
    if (open_ >= 0)
        tracer_.end(open_);
    open_ = -1;
}

} // namespace perfbench
