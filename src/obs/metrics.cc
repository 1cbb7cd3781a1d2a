#include "metrics.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/json.h"
#include "util/logging.h"
#include "util/worker_lane.h"

namespace lrd {

namespace obsdetail {

std::atomic<bool> gMetricsEnabled{false};

namespace {

constexpr int64_t kNoMin = std::numeric_limits<int64_t>::max();
constexpr int64_t kNoMax = std::numeric_limits<int64_t>::min();

/** One thread's private cells. Single writer; relaxed atomics make
 *  snapshot reads race-free. The trace ring is plain memory, read
 *  only by exports that run after the writers have quiesced. */
struct Shard
{
    int lane = 0;
    uint64_t seq = 0; ///< Creation order, for deterministic merging.
    std::array<std::atomic<int64_t>, kMaxCounters> counters{};
    struct HistCells
    {
        std::atomic<int64_t> count{0};
        std::atomic<int64_t> sum{0};
        std::atomic<int64_t> min{kNoMin};
        std::atomic<int64_t> max{kNoMax};
        std::array<std::atomic<int64_t>, kHistBuckets> buckets{};
    };
    std::array<HistCells, kMaxHistograms> hists{};
    uint64_t traceWritten = 0; ///< Total events; the ring holds the last N.
    std::vector<TraceEvent> ring; ///< Empty until the first traced record.

    void
    zero()
    {
        for (auto &c : counters)
            c.store(0, std::memory_order_relaxed);
        for (auto &h : hists) {
            h.count.store(0, std::memory_order_relaxed);
            h.sum.store(0, std::memory_order_relaxed);
            h.min.store(kNoMin, std::memory_order_relaxed);
            h.max.store(kNoMax, std::memory_order_relaxed);
            for (auto &b : h.buckets)
                b.store(0, std::memory_order_relaxed);
        }
        traceWritten = 0;
    }
};

/** Registry state behind one mutex; cold paths only. */
struct State
{
    std::mutex mu;
    std::vector<std::unique_ptr<Shard>> shards; ///< All ever created.
    std::map<int, std::vector<Shard *>> freeByLane;
    uint64_t nextSeq = 0;
    std::vector<std::unique_ptr<Counter>> counters;
    std::vector<std::unique_ptr<Gauge>> gauges;
    std::vector<std::unique_ptr<Histogram>> histograms;
};

State &
state()
{
    // Leaked intentionally: thread-local shard destructors and late
    // worker writes must outlive any static destruction order.
    static State *s = new State; // lrd-lint: allow(hot-path-alloc) lazy singleton
    return *s;
}

/** Relaxed single-writer add into a cell. */
inline void
cellAdd(std::atomic<int64_t> &cell, int64_t n)
{
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

void
histAdd(Shard::HistCells &h, int64_t value)
{
    cellAdd(h.count, 1);
    cellAdd(h.sum, value);
    cellAdd(h.buckets[static_cast<size_t>(Histogram::bucketOf(value))], 1);
    if (value < h.min.load(std::memory_order_relaxed))
        h.min.store(value, std::memory_order_relaxed);
    if (value > h.max.load(std::memory_order_relaxed))
        h.max.store(value, std::memory_order_relaxed);
}

Shard *
acquireShard()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    const int lane = workerLane();
    auto &pool = s.freeByLane[lane];
    if (!pool.empty()) {
        Shard *sh = pool.back();
        pool.pop_back();
        return sh;
    }
    // lrd-lint: allow(hot-path-alloc) one shard per thread, first record() only
    auto sh = std::make_unique<Shard>();
    sh->lane = lane;
    sh->seq = s.nextSeq++;
    Shard *raw = sh.get();
    s.shards.push_back(std::move(sh)); // lrd-lint: allow(hot-path-alloc) first record() per thread
    return raw;
}

void
releaseShard(Shard *sh)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.freeByLane[sh->lane].push_back(sh);
}

/** Thread-local shard handle; returns the shard to the lane free
 *  list on thread exit so pool resizes reuse memory. */
struct ShardRef
{
    Shard *shard = nullptr;
    ~ShardRef()
    {
        if (shard)
            releaseShard(shard);
    }
};

Shard &
myShard()
{
    thread_local ShardRef ref;
    if (!ref.shard)
        ref.shard = acquireShard();
    return *ref.shard;
}

/** Add e to the shard's ring, allocating the ring under the registry
 *  lock on the shard's first traced record so exports see it whole. */
void
appendToRing(Shard &sh, const TraceEvent &e)
{
    if (sh.ring.empty()) {
        std::lock_guard<std::mutex> lock(state().mu);
        sh.ring.resize(kTraceRingCapacity); // lrd-lint: allow(hot-path-alloc) first traced record per shard
    }
    sh.ring[static_cast<size_t>(sh.traceWritten % kTraceRingCapacity)] = e;
    ++sh.traceWritten;
}

/** All shards in deterministic (lane, creation) order; caller holds
 *  the registry lock. */
std::vector<Shard *>
orderedShards(State &s)
{
    std::vector<Shard *> ordered;
    ordered.reserve(s.shards.size());
    for (const auto &sh : s.shards)
        ordered.push_back(sh.get());
    std::sort(ordered.begin(), ordered.end(),
              [](const auto *a, const auto *b) {
                  return a->lane != b->lane ? a->lane < b->lane
                                            : a->seq < b->seq;
              });
    return ordered;
}

} // namespace

void
addToCounterSlot(int slot, int64_t n)
{
    cellAdd(myShard().counters[static_cast<size_t>(slot)], n);
}

void
recordToHistogramSlot(int slot, int64_t value)
{
    histAdd(myShard().hists[static_cast<size_t>(slot)], value);
}

void
appendTraceEvent(const TraceEvent &e)
{
    appendToRing(myShard(), e);
}

void
closeSpan(SpanSite &site, int64_t t0Ns, double arg, bool hasArg)
{
    const int64_t durNs = Tracer::nowNs() - t0Ns;
    int slot = site.slot.load(std::memory_order_relaxed);
    if (slot < 0) {
        // First enabled close of this site: racing closers resolve
        // the same find-or-create slot.
        slot = MetricsRegistry::instance()
                   .histogram(strCat("span.", site.name))
                   ->slot_;
        site.slot.store(slot, std::memory_order_relaxed);
    }
    Shard &sh = myShard();
    appendToRing(sh, TraceEvent{site.name, t0Ns, durNs, arg, hasArg});
    histAdd(sh.hists[static_cast<size_t>(slot)], durNs);
}

void
forEachTraceRing(
    const std::function<void(int, const std::vector<TraceEvent> &,
                             uint64_t)> &fn)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const Shard *sh : orderedShards(s))
        if (!sh->ring.empty())
            fn(sh->lane, sh->ring, sh->traceWritten);
}

} // namespace obsdetail

using obsdetail::kHistBuckets;
using obsdetail::kMaxCounters;
using obsdetail::kMaxHistograms;
using obsdetail::state;

int
Histogram::bucketOf(int64_t value)
{
    if (value <= 0)
        return 0;
    int b = 1;
    while (b < kHistBuckets - 1 && value >= (int64_t{1} << b))
        ++b;
    return b;
}

int64_t
Histogram::bucketLowerBound(int bucket)
{
    return bucket <= 0 ? 0 : int64_t{1} << (bucket - 1);
}

double
HistogramSnapshot::quantile(double q) const
{
    if (count <= 0)
        return 0.0;
    q = q < 0.0 ? 0.0 : q > 1.0 ? 1.0 : q;
    // Rank of the q-th sample (1-based, nearest-rank convention).
    const double rank = q * static_cast<double>(count);
    double estimate = static_cast<double>(
        Histogram::bucketLowerBound(obsdetail::kHistBuckets - 1));
    int64_t seen = 0;
    for (int b = 0; b < obsdetail::kHistBuckets; ++b) {
        const int64_t n = buckets[static_cast<size_t>(b)];
        if (n == 0)
            continue;
        const int64_t before = seen;
        seen += n;
        if (static_cast<double>(seen) < rank)
            continue;
        if (b == 0) {
            estimate = 0.0; // The <=0 bucket.
            break;
        }
        const double lo =
            static_cast<double>(Histogram::bucketLowerBound(b));
        const double width = lo; // [2^(b-1), 2^b) spans its lower bound.
        const double frac =
            (rank - static_cast<double>(before)) / static_cast<double>(n);
        estimate = lo + width * std::clamp(frac, 0.0, 1.0);
        break;
    }
    // No sample lies outside the exact [min, max].
    return std::clamp(estimate, static_cast<double>(min),
                      static_cast<double>(max));
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry *r = new MetricsRegistry; // lrd-lint: allow(hot-path-alloc) lazy singleton
    return *r;
}

void
MetricsRegistry::setEnabled(bool on)
{
    obsdetail::gMetricsEnabled.store(on, std::memory_order_relaxed);
}

Counter *
MetricsRegistry::counter(const std::string &name, bool perLane)
{
    auto &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &c : s.counters)
        if (c->name() == name)
            return c.get();
    require(s.counters.size() < kMaxCounters,
            "MetricsRegistry: counter slots exhausted");
    // lrd-lint: allow(hot-path-alloc) registration: once per metric name, then cached by index
    s.counters.push_back(std::unique_ptr<Counter>(new Counter(
        name, static_cast<int>(s.counters.size()), perLane)));
    return s.counters.back().get();
}

Gauge *
MetricsRegistry::gauge(const std::string &name)
{
    auto &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &g : s.gauges)
        if (g->name() == name)
            return g.get();
    s.gauges.push_back(std::unique_ptr<Gauge>(new Gauge(name)));
    return s.gauges.back().get();
}

Histogram *
MetricsRegistry::histogram(const std::string &name)
{
    auto &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &h : s.histograms)
        if (h->name() == name)
            return h.get();
    require(s.histograms.size() < kMaxHistograms,
            "MetricsRegistry: histogram slots exhausted");
    // lrd-lint: allow(hot-path-alloc) registration: once per metric name, then cached by index
    s.histograms.push_back(std::unique_ptr<Histogram>(
        new Histogram(name, static_cast<int>(s.histograms.size())))); // lrd-lint: allow(hot-path-alloc) registration
    return s.histograms.back().get();
}

int64_t
Counter::total() const
{
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    for (const auto &[n, v] : snap.counters)
        if (n == name_)
            return v;
    return 0;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    // Cold; the allows below answer lrd-lint's by-name call graph,
    // where TablePrinter::writeCsv's toCsv() reaches Tracer::toCsv.
    auto &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    const std::vector<obsdetail::Shard *> ordered =
        obsdetail::orderedShards(s);
    int maxLane = 0;
    for (const auto *sh : ordered)
        maxLane = std::max(maxLane, sh->lane);

    MetricsSnapshot out;
    for (const auto &c : s.counters) {
        int64_t total = 0;
        std::vector<int64_t> perLane(static_cast<size_t>(maxLane) + 1, 0);
        for (const auto *sh : ordered) {
            const int64_t v =
                sh->counters[static_cast<size_t>(c->slot_)].load(
                    std::memory_order_relaxed);
            total += v;
            perLane[static_cast<size_t>(sh->lane)] += v;
        }
        out.counters.emplace_back(c->name(), total); // lrd-lint: allow(hot-path-alloc) export path
        if (c->perLane_) // lrd-lint: allow(hot-path-alloc) export path
            out.perLaneCounters.emplace_back(c->name(),
                                             std::move(perLane));
    }
    for (const auto &g : s.gauges) // lrd-lint: allow(hot-path-alloc) export path
        out.gauges.emplace_back(g->name(), g->value());
    for (const auto &h : s.histograms) {
        HistogramSnapshot hs;
        hs.min = obsdetail::kNoMin;
        hs.max = obsdetail::kNoMax;
        for (const auto *sh : ordered) {
            const auto &cells = sh->hists[static_cast<size_t>(h->slot_)];
            hs.count += cells.count.load(std::memory_order_relaxed);
            hs.sum += cells.sum.load(std::memory_order_relaxed);
            hs.min = std::min(hs.min,
                              cells.min.load(std::memory_order_relaxed));
            hs.max = std::max(hs.max,
                              cells.max.load(std::memory_order_relaxed));
            for (int b = 0; b < kHistBuckets; ++b)
                hs.buckets[static_cast<size_t>(b)] +=
                    cells.buckets[static_cast<size_t>(b)].load(
                        std::memory_order_relaxed);
        }
        if (hs.count == 0)
            hs.min = hs.max = 0;
        out.histograms.emplace_back(h->name(), hs); // lrd-lint: allow(hot-path-alloc) export path
    }
    return out;
}

std::string
MetricsRegistry::toJson() const
{
    const MetricsSnapshot snap = snapshot();
    std::ostringstream oss;
    oss << "{\n  \"context\": {\n    \"metricsEnabled\": "
        << (enabled() ? "true" : "false")
        << ",\n    \"histogramQuantiles\": \"log2-bucket estimates "
           "clamped to each histogram's exact min and max\"\n  },\n";

    oss << "  \"counters\": {";
    for (size_t i = 0; i < snap.counters.size(); ++i) {
        oss << (i ? ",\n    " : "\n    ");
        oss << jsonQuote(snap.counters[i].first);
        oss << ": " << snap.counters[i].second;
    }
    oss << (snap.counters.empty() ? "},\n" : "\n  },\n");

    oss << "  \"gauges\": {";
    for (size_t i = 0; i < snap.gauges.size(); ++i) {
        oss << (i ? ",\n    " : "\n    ");
        oss << jsonQuote(snap.gauges[i].first);
        oss << ": " << snap.gauges[i].second;
    }
    oss << (snap.gauges.empty() ? "},\n" : "\n  },\n");

    oss << "  \"histograms\": {";
    for (size_t i = 0; i < snap.histograms.size(); ++i) {
        const auto &[name, hs] = snap.histograms[i];
        oss << (i ? ",\n    " : "\n    ");
        oss << jsonQuote(name);
        oss << ": {\"count\": " << hs.count << ", \"sum\": " << hs.sum
            << ", \"p50\": " << hs.p50() << ", \"p90\": " << hs.p90()
            << ", \"p99\": " << hs.p99() << ", \"buckets\": {";
        bool first = true;
        for (int b = 0; b < kHistBuckets; ++b) {
            const int64_t n = hs.buckets[static_cast<size_t>(b)];
            if (n == 0)
                continue;
            if (!first)
                oss << ", ";
            first = false;
            oss << '"' << Histogram::bucketLowerBound(b) << "\": " << n;
        }
        oss << "}}";
    }
    oss << (snap.histograms.empty() ? "},\n" : "\n  },\n");

    oss << "  \"perWorker\": {";
    for (size_t i = 0; i < snap.perLaneCounters.size(); ++i) {
        const auto &[name, lanes] = snap.perLaneCounters[i];
        oss << (i ? ",\n    " : "\n    ");
        oss << jsonQuote(name);
        oss << ": [";
        for (size_t l = 0; l < lanes.size(); ++l)
            oss << (l ? ", " : "") << lanes[l];
        oss << ']';
    }
    oss << (snap.perLaneCounters.empty() ? "}\n" : "\n  }\n");
    oss << "}\n";
    return oss.str();
}

void
MetricsRegistry::reset()
{
    auto &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto &sh : s.shards)
        sh->zero();
    for (const auto &g : s.gauges)
        g->set(0.0);
}

} // namespace lrd
