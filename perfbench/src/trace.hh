/**
 * @file
 * In-memory span recorder of the traced run. Spans are recorded at
 * the benchmark's calls into each layer (and, through `PassTracer`,
 * around every compiler pass), kept in memory, and written out as
 * Chrome trace-event JSON when the run ends. A layer's self time is
 * its span's duration minus the part covered by its child spans.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/pass.hh"
#include "harness.hh"

namespace perfbench
{

class Tracer
{
  public:
    /** Open a span; returns its id (parent -1 = root). */
    int begin(std::string name, int parent = -1);

    void end(int id);

    /** Spans recorded so far; a mark for `selfMillis`. */
    std::size_t mark() const;

    /**
     * Self time per span name over the spans recorded in [from, to),
     * in milliseconds. Children outside the range are ignored.
     */
    std::map<std::string, double> selfMillis(std::size_t from,
                                             std::size_t to) const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChrome(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
        int thread = 0;
    };

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, std::string name, int parent = -1)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(std::move(name), parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_;
};

/**
 * PassObserver that opens a "pass.<Name>" span around every pass,
 * as a child of the span set with `setParent`. Passes of one driver
 * run one at a time, so one open span suffices.
 */
class PassTracer : public dcmbqc::PassObserver
{
  public:
    explicit PassTracer(Tracer &tracer) : tracer_(tracer) {}

    void setParent(int span) { parent_ = span; }

    void onPassBegin(const std::string &label,
                     const dcmbqc::Pass &pass) override;
    void onPassEnd(const std::string &label, const dcmbqc::Pass &pass,
                   const dcmbqc::StageReport &report) override;

  private:
    Tracer &tracer_;
    int parent_ = -1;
    int open_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
