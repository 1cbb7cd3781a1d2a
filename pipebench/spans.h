/**
 * @file
 * The benchmark's own span recorder. A traced run wraps each call it
 * makes into a library layer in a span (name "<layer>.<call>", start,
 * end, parent span, run id), keeps every span in memory, and writes
 * them out once the run ends. Nothing here touches the library's
 * Tracer (LRD_TRACE): its per-thread ring drops spans on long sweeps,
 * while this recorder keeps all of them.
 */

#ifndef PIPEBENCH_SPANS_H
#define PIPEBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

struct Span
{
    std::string name;
    int64_t id = 0;
    int64_t parent = -1; ///< -1 for a root span.
    int run = 0;         ///< Index into SpanRecorder::runs().
    int lane = 0;        ///< Pool worker that recorded the span.
    double startUs = 0.0;
    double endUs = -1.0; ///< Negative while the span is open.
};

/** Self-time row of one span name. */
struct SelfTime
{
    std::string name;
    int64_t calls = 0;
    double totalMs = 0.0;
    double selfMs = 0.0; ///< Total minus the time covered by children.
};

class SpanRecorder
{
  public:
    SpanRecorder();

    /** Start a run (one set-up, pass or probe); later spans carry it. */
    void beginRun(const std::string &label);

    int64_t open(const std::string &name, int64_t parent);
    void close(int64_t id);

    /** Durations in ms of every closed span called `name`. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Self time per span name, sorted by name (so by layer). */
    std::vector<SelfTime> selfTimes() const;

    /** chrome://tracing JSON: one "X" event per span, with the id,
     *  parent and run in its args. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &provenance) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;       ///< Indexed by span id.
    std::vector<std::string> runs_; ///< Run labels, indexed by run id.
    std::chrono::steady_clock::time_point origin_;
};

/**
 * RAII span. The parent is the innermost span open on this thread
 * unless one is given (a parallel region's items name the span that
 * fanned them out). A null recorder makes the span a no-op, which is
 * how untraced runs call the same code.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name);
    ScopedSpan(SpanRecorder *rec, const char *name, int64_t parent);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    int64_t id_ = -1;
};

} // namespace pipebench

#endif // PIPEBENCH_SPANS_H
