/**
 * @file
 * Scoped tracing with chrome://tracing / Perfetto JSON export.
 *
 * Usage:
 *
 *     LRD_TRACE_SPAN("gemm");                  // span to end of scope
 *     LRD_TRACE_SPAN("jacobi.sweep", offNorm); // with a numeric arg
 *
 * A closed span records into the calling lane's metrics shard
 * (obs/metrics.h; lane 0 is the main thread, 1..N-1 the pool
 * workers): one complete ("ph":"X") event in the lane's timeline
 * ring, which keeps the last kTraceRingCapacity, and its duration in
 * ns in the registry histogram "span.<name>", which keeps every
 * span. When tracing is disabled (the default) a span is one
 * relaxed atomic load and a branch; span names must be string
 * literals (the ring stores the pointer, not a copy).
 *
 * Export: toChromeJson() loads directly in chrome://tracing or
 * https://ui.perfetto.dev; toCsv() is the exact per-name summary
 * (count / total / min / max / mean microseconds) of the histograms.
 */

#ifndef LRD_OBS_TRACE_H
#define LRD_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace lrd {

namespace obsdetail {

extern std::atomic<bool> gTraceEnabled;

/** Events each lane's timeline ring keeps; older ones are overwritten. */
constexpr size_t kTraceRingCapacity = size_t{1} << 15;

/** One complete event of a lane's timeline. */
struct TraceEvent
{
    const char *name;
    int64_t tsNs;
    int64_t durNs;
    double arg;
    bool hasArg;
};

/**
 * One LRD_TRACE_SPAN call site. Constant-initialized, so a disabled
 * span never touches it; the first enabled close resolves slot, the
 * shard index of the site's "span.<name>" histogram.
 */
struct SpanSite
{
    const char *name;
    std::atomic<int> slot{-1};
};

/** Close a span opened at t0Ns (metrics.cc: ring + span histogram). */
void closeSpan(SpanSite &site, int64_t t0Ns, double arg, bool hasArg);

} // namespace obsdetail

class Tracer
{
  public:
    /** Never destructs (deliberately leaked). */
    static Tracer &instance();

    static bool
    enabled()
    {
        return obsdetail::gTraceEnabled.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on);

    /** Nanoseconds since the process trace epoch (steady clock). */
    static int64_t nowNs();

    /**
     * Add one event to the calling lane's timeline ring only (no span
     * histogram): markers such as the pool's per-worker lane event.
     * @param name   Static string (lifetime of the process).
     * @param tsNs   Event begin, from nowNs().
     * @param durNs  Event duration.
     * @param arg    Optional numeric payload (exported under args.v).
     */
    void record(const char *name, int64_t tsNs, int64_t durNs,
                double arg, bool hasArg);

    /**
     * Chrome trace-event JSON ("traceEvents" array format). When a
     * ring wrapped, a top-level "otherData": {"droppedEvents": N}
     * marks the timeline as truncated.
     */
    std::string toChromeJson() const;

    /** Per-name summary CSV: name,count,total_us,min_us,max_us,mean_us. */
    std::string toCsv() const;

    /** Timeline events lost to ring wrap-around (since the last
     *  MetricsRegistry::reset()). */
    int64_t droppedEvents() const;

  private:
    Tracer() = default;
};

/** RAII span; prefer the LRD_TRACE_SPAN macro. */
class TraceSpan
{
  public:
    explicit TraceSpan(obsdetail::SpanSite &site)
    {
        if (Tracer::enabled()) {
            site_ = &site;
            t0_ = Tracer::nowNs();
        }
    }

    TraceSpan(obsdetail::SpanSite &site, double arg)
    {
        if (Tracer::enabled()) {
            site_ = &site;
            arg_ = arg;
            hasArg_ = true;
            t0_ = Tracer::nowNs();
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (site_)
            obsdetail::closeSpan(*site_, t0_, arg_, hasArg_);
    }

  private:
    obsdetail::SpanSite *site_ = nullptr; ///< Null when tracing was off.
    int64_t t0_ = 0;
    double arg_ = 0.0;
    bool hasArg_ = false;
};

#define LRD_OBS_CONCAT2(a, b) a##b
#define LRD_OBS_CONCAT(a, b) LRD_OBS_CONCAT2(a, b)

#define LRD_TRACE_SPAN(name, ...)                                           \
    static constinit ::lrd::obsdetail::SpanSite LRD_OBS_CONCAT(             \
        lrdTraceSite_, __LINE__){name};                                     \
    ::lrd::TraceSpan LRD_OBS_CONCAT(lrdTraceSpan_, __LINE__)(               \
        LRD_OBS_CONCAT(lrdTraceSite_, __LINE__) __VA_OPT__(, ) __VA_ARGS__)

} // namespace lrd

#endif // LRD_OBS_TRACE_H
