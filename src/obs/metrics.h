/**
 * @file
 * Process-wide metrics registry: counters, gauges and log2-bucket
 * histograms, recorded through per-thread shards so the hot path
 * never takes a lock.
 *
 * Design (see docs/ARCHITECTURE.md, "Observability"):
 *
 * - A metric is a named slot. Handles (Counter*, Histogram*, Gauge*)
 *   are looked up once (mutex-protected, cold) and cached by the
 *   instrumented code; recording through a handle touches only the
 *   calling thread's shard.
 * - Each thread owns one shard, keyed by its workerLane(). Shard
 *   cells are std::atomic<int64_t> written with relaxed single-writer
 *   load/store pairs — plain additions in machine code, but race-free
 *   under TSan because snapshots use relaxed loads.
 * - snapshot() merges shards in deterministic (lane, creation) order.
 *   Counter and histogram cells are integers, so merged totals are
 *   exactly reproducible at any thread count — the same guarantee the
 *   thread pool gives the numeric kernels. Workload counters such as
 *   gemm.macs are therefore thread-count-invariant. pool.chunks counts
 *   outermost-region chunks only (nested regions run inline and record
 *   nothing), so it follows the region structure, not the thread
 *   count. pool.idleWaits is a scheduling counter and varies.
 * - Recording is gated on one global atomic flag (default off). With
 *   metrics disabled every record call is a relaxed load + branch.
 * - The shard also holds its lane's trace ring (obs/trace.h). A
 *   closed span writes its "span.<name>" histogram whether or not
 *   metrics are on: the trace summary is exact, the ring is only
 *   the recent timeline.
 *
 * Shards are returned to a per-lane free list on thread exit and
 * reused by the next worker with that lane, so repeated pool resizes
 * do not grow memory and cumulative totals survive worker churn.
 */

#ifndef LRD_OBS_METRICS_H
#define LRD_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace lrd {

class MetricsRegistry;

namespace obsdetail {

/** Global metrics on/off switch (read on every record call). */
extern std::atomic<bool> gMetricsEnabled;

constexpr int kMaxCounters = 4096;
constexpr int kMaxHistograms = 128;
constexpr int kHistBuckets = 48; ///< Bucket b: [2^(b-1), 2^b); b0 = {<=0}.

void addToCounterSlot(int slot, int64_t n);
void recordToHistogramSlot(int slot, int64_t value);

/** Append e to the calling lane's trace ring (any metrics setting). */
void appendTraceEvent(const TraceEvent &e);

/** Visit each allocated trace ring in (lane, creation) order, under
 *  the registry lock and once its writers have quiesced: fn(lane,
 *  ring, written); the first min(written, ring.size()) are filled. */
void forEachTraceRing(
    const std::function<void(int, const std::vector<TraceEvent> &,
                             uint64_t)> &fn);

} // namespace obsdetail

/** Monotonically increasing integer metric. */
class Counter
{
  public:
    /** Add n to this thread's shard cell; no-op while disabled. */
    void
    add(int64_t n)
    {
        if (!obsdetail::gMetricsEnabled.load(std::memory_order_relaxed))
            return;
        obsdetail::addToCounterSlot(slot_, n);
    }

    void inc() { add(1); }

    /** Merged total across all shards (cold; takes the registry lock). */
    int64_t total() const;

    const std::string &name() const { return name_; }

  private:
    friend class MetricsRegistry;
    Counter(std::string name, int slot, bool perLane)
        : name_(std::move(name)), slot_(slot), perLane_(perLane)
    {
    }

    std::string name_;
    int slot_;
    bool perLane_; ///< Export a per-worker breakdown in snapshots.
};

/** Last-write-wins double metric (set from the posting thread). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double value() const { return value_.load(std::memory_order_relaxed); }
    const std::string &name() const { return name_; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    std::string name_;
    std::atomic<double> value_{0.0};
};

/** Fixed log2-bucket histogram of non-negative integer samples. */
class Histogram
{
  public:
    /** Record one sample; no-op while disabled. */
    void
    record(int64_t value)
    {
        if (!obsdetail::gMetricsEnabled.load(std::memory_order_relaxed))
            return;
        obsdetail::recordToHistogramSlot(slot_, value);
    }

    /** Bucket index for a value: 0 for <= 0, else 1 + floor(log2 v),
     *  clamped to the last bucket. */
    static int bucketOf(int64_t value);

    /** Inclusive lower bound of a bucket (0 for bucket 0). */
    static int64_t bucketLowerBound(int bucket);

    const std::string &name() const { return name_; }

  private:
    friend class MetricsRegistry;
    friend void obsdetail::closeSpan(obsdetail::SpanSite &, int64_t,
                                     double, bool);
    Histogram(std::string name, int slot)
        : name_(std::move(name)), slot_(slot)
    {
    }

    std::string name_;
    int slot_;
};

/** Merged view of one histogram. */
struct HistogramSnapshot
{
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0; ///< Exact smallest sample (0 when empty).
    int64_t max = 0; ///< Exact largest sample (0 when empty).
    std::array<int64_t, obsdetail::kHistBuckets> buckets{};

    /**
     * Estimated value at quantile q in [0, 1], linearly interpolated
     * inside the covering log2 bucket [2^(b-1), 2^b) and clamped to
     * the exact [min, max], so it never names a value outside the
     * samples. Within one bucket width (a factor of 2) of the true
     * quantile, and not necessarily a value any sample had: every
     * tool that prints it labels it an estimate. Returns 0 for an
     * empty histogram.
     */
    double quantile(double q) const;

    double p50() const { return quantile(0.50); }
    double p90() const { return quantile(0.90); }
    double p99() const { return quantile(0.99); }
};

/** Point-in-time merged view of the whole registry. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
    /** Per-lane totals for counters registered with perLane = true. */
    std::vector<std::pair<std::string, std::vector<int64_t>>>
        perLaneCounters;
};

/**
 * The process-wide registry. instance() never destructs (it is
 * deliberately leaked) so worker threads and thread-local shard
 * destructors can always reach it during shutdown.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** Whether recording is active (global switch, default off). */
    static bool
    enabled()
    {
        return obsdetail::gMetricsEnabled.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on);

    /**
     * Find-or-create a counter. Handles are stable for the process
     * lifetime; cache the pointer in instrumented code.
     * @param perLane Include a per-worker breakdown in snapshots/JSON
     *                (used for thread-pool utilization metrics).
     */
    Counter *counter(const std::string &name, bool perLane = false);
    Gauge *gauge(const std::string &name);
    Histogram *histogram(const std::string &name);

    /** Merge all shards in (lane, creation) order. */
    MetricsSnapshot snapshot() const;

    /**
     * Render the merged registry as JSON: {"context": ..,
     * "counters": {..}, "gauges": {..}, "histograms": {..},
     * "perWorker": {..}} — flat name->value keys, the same convention
     * the BENCH_*.json artifacts use.
     */
    std::string toJson() const;

    /** Zero every shard (cells, span histograms, trace ring) and
     *  gauge (tests and benchmarks). */
    void reset();

  private:
    MetricsRegistry() = default;
};

} // namespace lrd

#endif // LRD_OBS_METRICS_H
