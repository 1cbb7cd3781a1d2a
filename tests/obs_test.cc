/**
 * @file
 * Observability subsystem tests: metric merge determinism across
 * thread counts, trace JSON well-formedness (parsed back with a
 * minimal JSON validator), disabled-path no-ops, and the logging
 * satellite (level filtering, LRD_LOG parsing, prefixes).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"

namespace lrd {
namespace {

/**
 * Minimal recursive-descent JSON validator (no external JSON library
 * in this repo): accepts exactly the RFC 8259 grammar the exporters
 * are supposed to emit.
 */
class JsonValidator
{
  public:
    static bool
    valid(const std::string &text)
    {
        JsonValidator v(text);
        v.skipWs();
        if (!v.value())
            return false;
        v.skipWs();
        return v.p_ == v.end_;
    }

  private:
    explicit JsonValidator(const std::string &text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    const char *p_;
    const char *end_;

    void
    skipWs()
    {
        while (p_ != end_
               && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n'
                   || *p_ == '\r'))
            ++p_;
    }

    bool
    literal(const char *lit)
    {
        for (; *lit; ++lit, ++p_)
            if (p_ == end_ || *p_ != *lit)
                return false;
        return true;
    }

    bool
    string()
    {
        if (p_ == end_ || *p_ != '"')
            return false;
        ++p_;
        while (p_ != end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ == end_)
                    return false;
            }
            ++p_;
        }
        if (p_ == end_)
            return false;
        ++p_; // Closing quote.
        return true;
    }

    bool
    number()
    {
        const char *start = p_;
        if (p_ != end_ && *p_ == '-')
            ++p_;
        while (p_ != end_
               && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' || *p_ == 'e'
                   || *p_ == 'E' || *p_ == '+' || *p_ == '-'))
            ++p_;
        return p_ != start;
    }

    bool
    value()
    {
        skipWs();
        if (p_ == end_)
            return false;
        switch (*p_) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    bool
    object()
    {
        ++p_; // '{'
        skipWs();
        if (p_ != end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (p_ == end_ || *p_ != ':')
                return false;
            ++p_;
            if (!value())
                return false;
            skipWs();
            if (p_ == end_)
                return false;
            if (*p_ == '}') {
                ++p_;
                return true;
            }
            if (*p_ != ',')
                return false;
            ++p_;
        }
    }

    bool
    array()
    {
        ++p_; // '['
        skipWs();
        if (p_ != end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (p_ == end_)
                return false;
            if (*p_ == ']') {
                ++p_;
                return true;
            }
            if (*p_ != ',')
                return false;
            ++p_;
        }
    }
};

int64_t
counterValue(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &[n, v] : snap.counters)
        if (n == name)
            return v;
    return -1;
}

const HistogramSnapshot *
histogramValue(const MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &[n, h] : snap.histograms)
        if (n == name)
            return &h;
    return nullptr;
}

/** Restores metrics/trace enablement and the 1-thread pool on exit. */
struct ObsStateGuard
{
    ~ObsStateGuard()
    {
        MetricsRegistry::instance().setEnabled(false);
        Tracer::instance().setEnabled(false);
        ThreadPool::instance().resize(1);
        setLogLevel(LogLevel::Info);
        setLogTimestamps(false);
    }
};

TEST(Metrics, MergeIsIdenticalAcrossThreadCounts)
{
    ObsStateGuard guard;
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.setEnabled(true);
    Counter *items = reg.counter("test.merge.items");
    Histogram *sizes = reg.histogram("test.merge.sizes");

    auto run = [&](int threads) {
        ThreadPool::instance().resize(threads);
        reg.reset();
        parallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                items->add(i);
                sizes->record(i);
            }
        });
        return reg.snapshot();
    };

    const MetricsSnapshot one = run(1);
    const MetricsSnapshot many = run(8);

    EXPECT_EQ(counterValue(one, "test.merge.items"), 999 * 1000 / 2);
    EXPECT_EQ(counterValue(one, "test.merge.items"),
              counterValue(many, "test.merge.items"));

    const HistogramSnapshot *h1 = histogramValue(one, "test.merge.sizes");
    const HistogramSnapshot *h8 = histogramValue(many, "test.merge.sizes");
    ASSERT_NE(h1, nullptr);
    ASSERT_NE(h8, nullptr);
    EXPECT_EQ(h1->count, 1000);
    EXPECT_EQ(h1->count, h8->count);
    EXPECT_EQ(h1->sum, h8->sum);
    for (int b = 0; b < obsdetail::kHistBuckets; ++b)
        EXPECT_EQ(h1->buckets[static_cast<size_t>(b)],
                  h8->buckets[static_cast<size_t>(b)])
            << "bucket " << b;
}

TEST(Metrics, PerLaneBreakdownSumsToTotal)
{
    ObsStateGuard guard;
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.setEnabled(true);
    Counter *chunks = reg.counter("test.perlane.chunks", /*perLane=*/true);

    ThreadPool::instance().resize(8);
    reg.reset();
    parallelFor(0, 64, 1, [&](int64_t, int64_t) { chunks->inc(); });

    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(counterValue(snap, "test.perlane.chunks"), 64);
    bool found = false;
    for (const auto &[name, lanes] : snap.perLaneCounters) {
        if (name != "test.perlane.chunks")
            continue;
        found = true;
        int64_t sum = 0;
        for (int64_t v : lanes)
            sum += v;
        EXPECT_EQ(sum, 64);
    }
    EXPECT_TRUE(found);
}

/** ThreadPool::workerIndex() names the lane a chunk runs on: 0 for
 *  the posting thread, 1..numThreads()-1 for the pool's workers. */
TEST(Metrics, WorkerIndexNamesAPoolLane)
{
    ThreadPool::instance().resize(4);
    EXPECT_EQ(ThreadPool::workerIndex(), 0);
    std::vector<int> lanes(64, -1);
    parallelFor(0, 64, 1, [&](int64_t lo, int64_t) {
        lanes[static_cast<size_t>(lo)] = ThreadPool::workerIndex();
    });
    for (const int lane : lanes) {
        EXPECT_GE(lane, 0);
        EXPECT_LT(lane, 4);
    }
}

TEST(Metrics, PoolChunkCounterMatchesPartitioning)
{
    ObsStateGuard guard;
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.setEnabled(true);

    for (int threads : {1, 8}) {
        ThreadPool::instance().resize(threads);
        reg.reset();
        parallelFor(0, 100, 10, [&](int64_t, int64_t) {});
        EXPECT_EQ(counterValue(reg.snapshot(), "pool.chunks"), 10)
            << "threads=" << threads;

        // Regions nested in each outer chunk run inline and record
        // nothing, so the count stays the outer partition's.
        reg.reset();
        parallelFor(0, 100, 10, [&](int64_t, int64_t) {
            parallelFor(0, 64, 1, [&](int64_t, int64_t) {});
        });
        EXPECT_EQ(counterValue(reg.snapshot(), "pool.chunks"), 10)
            << "nested, threads=" << threads;
    }
}

TEST(Metrics, SkinnyGemmCallsCountApartFromTheKernelLevel)
{
    // gemm.calls.<level> counts calls that ran that level's micro
    // kernel; a skinny call runs neither and counts in
    // gemm.calls.skinny. gemm.calls is their sum.
    ObsStateGuard guard;
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.setEnabled(true);
    const simd::Level restore = simd::activeLevel();
    simd::setActiveLevel(simd::Level::Scalar);
    reg.reset();
    const std::vector<float> a(32 * 64, 1.0F), b(64 * 64, 1.0F);
    std::vector<float> c(32 * 64);
    gemmTransB(a.data(), b.data(), c.data(), 1, 64, 64);
    EXPECT_EQ(reg.counter("gemm.calls.skinny")->total(), 1);
    EXPECT_EQ(reg.counter("gemm.calls.scalar")->total(), 0);
    gemmTransB(a.data(), b.data(), c.data(), 32, 64, 64);
    EXPECT_EQ(reg.counter("gemm.calls.skinny")->total(), 1);
    EXPECT_EQ(reg.counter("gemm.calls.scalar")->total(), 1);
    EXPECT_EQ(reg.counter("gemm.calls")->total(), 2);
    simd::setActiveLevel(restore);
}

TEST(Metrics, DisabledRecordingIsANoOp)
{
    ObsStateGuard guard;
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.setEnabled(true);
    Counter *c = reg.counter("test.disabled.counter");
    reg.reset();
    c->add(5);
    reg.setEnabled(false);
    c->add(1000);
    EXPECT_EQ(c->total(), 5);
}

TEST(Metrics, JsonExportIsWellFormed)
{
    ObsStateGuard guard;
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.setEnabled(true);
    reg.counter("test.json.counter")->add(3);
    reg.gauge("test.json.gauge")->set(2.5);
    reg.histogram("test.json.hist")->record(100);

    const std::string json = reg.toJson();
    EXPECT_TRUE(JsonValidator::valid(json)) << json;
    EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
}

TEST(Metrics, HistogramBucketBoundaries)
{
    EXPECT_EQ(Histogram::bucketOf(-5), 0);
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    EXPECT_EQ(Histogram::bucketOf(1023), 10);
    EXPECT_EQ(Histogram::bucketOf(1024), 11);
    EXPECT_EQ(Histogram::bucketOf(std::numeric_limits<int64_t>::max()),
              obsdetail::kHistBuckets - 1);
    EXPECT_EQ(Histogram::bucketLowerBound(0), 0);
    EXPECT_EQ(Histogram::bucketLowerBound(1), 1);
    EXPECT_EQ(Histogram::bucketLowerBound(3), 4);
}

TEST(Trace, ChromeJsonIsWellFormedAndHasWorkerLanes)
{
    ObsStateGuard guard;
    Tracer &tracer = Tracer::instance();
    MetricsRegistry::instance().reset();
    tracer.setEnabled(true);

    // Respawn workers with tracing on so each emits its lane marker.
    ThreadPool::instance().resize(1);
    ThreadPool::instance().resize(8);

    {
        LRD_TRACE_SPAN("test.outer");
        LRD_TRACE_SPAN("test.withArg", 3.25);
        parallelFor(0, 64, 1, [&](int64_t, int64_t) {
            LRD_TRACE_SPAN("test.body");
        });
    }
    tracer.setEnabled(false);

    const std::string json = tracer.toChromeJson();
    EXPECT_TRUE(JsonValidator::valid(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"test.withArg\""), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"v\": 3.25}"), std::string::npos);
    // Every worker spawned while tracing was on gets a named lane.
    for (int lane = 1; lane <= 7; ++lane)
        EXPECT_NE(json.find("\"worker-" + std::to_string(lane) + "\""),
                  std::string::npos)
            << "missing lane " << lane;

    const std::string csv = tracer.toCsv();
    EXPECT_NE(csv.find("name,count,total_us,min_us,max_us,mean_us"),
              std::string::npos);
    EXPECT_NE(csv.find("test.body,64,"), std::string::npos);
}

TEST(Trace, SummaryIsExactPastRingCapacity)
{
    ObsStateGuard guard;
    Tracer &tracer = Tracer::instance();
    MetricsRegistry::instance().reset();
    tracer.setEnabled(true);
    ThreadPool::instance().resize(8);

    // More spans of one name on lane 0 than its ring holds, plus spans
    // fanned out over the workers.
    constexpr int kSerial = 40000;
    constexpr int kFanned = 4096;
    for (int i = 0; i < kSerial; ++i) {
        LRD_TRACE_SPAN("test.exact");
    }
    parallelFor(0, kFanned, 1, [&](int64_t, int64_t) {
        LRD_TRACE_SPAN("test.exact");
    });
    tracer.setEnabled(false);

    EXPECT_GT(tracer.droppedEvents(), 0);
    const std::string total = std::to_string(kSerial + kFanned);
    EXPECT_NE(tracer.toCsv().find("\ntest.exact," + total + ","),
              std::string::npos)
        << tracer.toCsv();
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    const HistogramSnapshot *h = histogramValue(snap, "span.test.exact");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, kSerial + kFanned);
    EXPECT_LE(h->min, h->max);

    // The truncated timeline says so in the file.
    const std::string json = tracer.toChromeJson();
    EXPECT_TRUE(JsonValidator::valid(json));
    EXPECT_NE(json.find("\"otherData\": {\"droppedEvents\": "
                        + std::to_string(tracer.droppedEvents()) + "}"),
              std::string::npos);

    MetricsRegistry::instance().reset();
    EXPECT_EQ(tracer.droppedEvents(), 0);
    EXPECT_EQ(tracer.toCsv().find("test.exact"), std::string::npos);
}

TEST(Trace, DisabledSpansRecordNothing)
{
    ObsStateGuard guard;
    Tracer &tracer = Tracer::instance();
    tracer.setEnabled(false);
    MetricsRegistry::instance().reset();
    {
        LRD_TRACE_SPAN("test.shouldNotAppear");
    }
    EXPECT_EQ(tracer.toChromeJson().find("test.shouldNotAppear"),
              std::string::npos);
    EXPECT_EQ(tracer.droppedEvents(), 0);
}

TEST(Logging, LevelFilteringAndPrefixes)
{
    ObsStateGuard guard;

    setLogLevel(LogLevel::Warn);
    testing::internal::CaptureStderr();
    inform("should be filtered");
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(out.empty()) << out;

    testing::internal::CaptureStderr();
    warn("should appear");
    out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("should appear"), std::string::npos);
    EXPECT_EQ(out.find(" w0] "), std::string::npos);

    // "+ts" adds an elapsed-seconds + worker-lane prefix.
    setLogTimestamps(true);
    testing::internal::CaptureStderr();
    warn("stamped");
    out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("s w0] "), std::string::npos) << out;
    EXPECT_NE(out.find("stamped"), std::string::npos);
}

TEST(Logging, TimestampToggleRoundTrips)
{
    ObsStateGuard guard;
    for (bool on : {true, false, true}) {
        setLogTimestamps(on);
        testing::internal::CaptureStderr();
        warn("toggled");
        const std::string out = testing::internal::GetCapturedStderr();
        EXPECT_EQ(out.find("s w0] ") != std::string::npos, on) << out;
    }
}

TEST(Logging, ParseLogSpec)
{
    LogSpec spec = parseLogSpec("debug");
    EXPECT_EQ(spec.level, LogLevel::Debug);
    EXPECT_FALSE(spec.timestamps);

    spec = parseLogSpec("warn+ts");
    EXPECT_EQ(spec.level, LogLevel::Warn);
    EXPECT_TRUE(spec.timestamps);

    EXPECT_THROW(parseLogSpec("verbose"), std::runtime_error);
    EXPECT_THROW(parseLogSpec("info+color"), std::runtime_error);
    EXPECT_THROW(parseLogSpec(""), std::runtime_error);
}

/**
 * The exact pattern that used to race: pool workers read the log
 * level while another thread adjusts it. With the level stored in a
 * plain global, the TSan run of this suite flags it; the atomic makes
 * it clean.
 */
TEST(Logging, ConcurrentLevelAccessIsRaceFree)
{
    ObsStateGuard guard;
    setLogLevel(LogLevel::Error); // Filter everything: no stderr spam.
    ThreadPool::instance().resize(4);

    std::atomic<bool> stop{false};
    // The raw thread is the point of this test: an external,
    // non-pool thread racing the pool workers on the log level.
    std::thread flipper([&] { // lrd-lint: allow(thread-outside-parallel)
        while (!stop.load(std::memory_order_relaxed)) {
            setLogLevel(LogLevel::Warn);
            setLogLevel(LogLevel::Error);
        }
    });
    parallelFor(0, 2000, 1, [&](int64_t, int64_t) {
        inform("never printed"); // Reads the level on a pool worker.
    });
    stop.store(true);
    flipper.join();
}

TEST(Logging, StrCatMixesTypes)
{
    EXPECT_EQ(strCat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(strCat(), "");
    EXPECT_EQ(strCat(std::string("x"), 'y'), "xy");
}

} // namespace
} // namespace lrd
