/**
 * @file
 * Flight-recorder suite: histogram quantiles, the run manifest
 * round-trip, the JSON parser, the memory probes, the telemetry
 * sampler's JSONL schema, and — the property that licenses the
 * sampler thread's existence — bitwise-identical numerics with
 * telemetry on or off at any thread count, including a run killed
 * mid-flight through the real fault-injection machinery.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eval/evaluator.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "tensor/ops.h"
#include "train/model_zoo.h"
#include "util/json.h"
#include "util/memprobe.h"

namespace lrd {
namespace {

/** Unique scratch path per test; removed on destruction. */
struct ScratchFile
{
    explicit ScratchFile(const std::string &tag)
        : path("/tmp/lrd_telemetry_test_" + tag + ".jsonl")
    {
        std::remove(path.c_str());
        std::remove((path + ".1").c_str());
    }
    ~ScratchFile()
    {
        std::remove(path.c_str());
        std::remove((path + ".1").c_str());
    }
    std::string path;
};

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return "";
    std::string text;
    char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

template <class Fn>
auto
withThreads(int n, Fn fn)
{
    ThreadPool::instance().resize(n);
    return fn();
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
           && std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.size()) * sizeof(float))
                  == 0;
}

TEST(HistogramQuantiles, EmptyHistogramIsZero)
{
    const HistogramSnapshot hs;
    EXPECT_EQ(hs.p50(), 0.0);
    EXPECT_EQ(hs.p90(), 0.0);
    EXPECT_EQ(hs.p99(), 0.0);
}

TEST(HistogramQuantiles, SingleBucketInterpolates)
{
    // 100 samples in the [8, 16) bucket, 8 to 15: quantiles
    // interpolate linearly across the bucket, up to the largest sample.
    HistogramSnapshot hs;
    hs.count = 100;
    hs.min = 8;
    hs.max = 15;
    hs.buckets[static_cast<size_t>(Histogram::bucketOf(8))] = 100;
    EXPECT_DOUBLE_EQ(hs.p50(), 12.0);
    EXPECT_DOUBLE_EQ(hs.p90(), 15.0); // 15.2 interpolated
    EXPECT_DOUBLE_EQ(hs.p99(), 15.0); // 15.92 interpolated
}

TEST(HistogramQuantiles, SkewedMassPicksTheRightBucket)
{
    // 90 tiny samples and 10 large ones: p50 stays in the small
    // bucket, p99 lands in the large one.
    HistogramSnapshot hs;
    hs.count = 100;
    hs.min = 1;
    hs.max = 1500;
    hs.buckets[static_cast<size_t>(Histogram::bucketOf(1))] = 90;
    hs.buckets[static_cast<size_t>(Histogram::bucketOf(1024))] = 10;
    EXPECT_LT(hs.p50(), 2.01);
    EXPECT_GE(hs.p99(), 1024.0);
    EXPECT_LE(hs.p99(), 1500.0); // 1945.6 interpolated
}

TEST(HistogramQuantiles, ZeroBucketReportsZero)
{
    HistogramSnapshot hs;
    hs.count = 10;
    hs.min = -3;
    hs.max = 0;
    hs.buckets[0] = 10; // All samples <= 0.
    EXPECT_EQ(hs.p99(), 0.0);
}

TEST(HistogramQuantiles, EstimatesStayInsideTheSamples)
{
    // Latencies capped at a 64-tick deadline: 64 opens the [64, 128)
    // bucket, whose interpolation would report up to 127.
    MetricsRegistry &reg = MetricsRegistry::instance();
    const bool wasEnabled = reg.enabled();
    reg.setEnabled(true);
    Histogram *h = reg.histogram("test.quantile.capped");
    for (int64_t i = 0; i < 300; ++i)
        h->record(33 + i % 31);
    for (int i = 0; i < 100; ++i)
        h->record(64);
    const MetricsSnapshot snap = reg.snapshot();
    reg.setEnabled(wasEnabled);
    const auto it = std::find_if(
        snap.histograms.begin(), snap.histograms.end(),
        [](const auto &e) { return e.first == "test.quantile.capped"; });
    ASSERT_NE(it, snap.histograms.end());
    const HistogramSnapshot &hs = it->second;
    EXPECT_EQ(hs.min, 33);
    EXPECT_EQ(hs.max, 64);
    for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
        EXPECT_GE(hs.quantile(q), 33.0) << q;
        EXPECT_LE(hs.quantile(q), 64.0) << q;
    }
    EXPECT_EQ(hs.p99(), 64.0);
}

TEST(TelemetrySpec, ParsesIntervalAndPath)
{
    const Result<TelemetryConfig> bare = parseTelemetrySpec("250");
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(bare.value().intervalMs, 250);
    EXPECT_EQ(bare.value().path, "lrd_telemetry.jsonl");

    const Result<TelemetryConfig> full =
        parseTelemetrySpec("50:/tmp/x.jsonl");
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full.value().intervalMs, 50);
    EXPECT_EQ(full.value().path, "/tmp/x.jsonl");
}

TEST(TelemetrySpec, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseTelemetrySpec("").ok());
    EXPECT_FALSE(parseTelemetrySpec("abc").ok());
    EXPECT_FALSE(parseTelemetrySpec("-5").ok());
    EXPECT_FALSE(parseTelemetrySpec("0").ok());
    EXPECT_FALSE(parseTelemetrySpec("10:").ok());
}

TEST(Json, ParsesScalarsObjectsAndArrays)
{
    const Result<JsonValue> doc = parseJson(
        R"({"a": 1.5, "b": [true, null, "x\"y"], "c": {"d": -3}})");
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue &v = doc.value();
    EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 1.5);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->elements().size(), 3U);
    EXPECT_EQ(b->elements()[0].kind(), JsonValue::Kind::Bool);
    EXPECT_EQ(b->elements()[1].kind(), JsonValue::Kind::Null);
    EXPECT_EQ(b->elements()[2].asString(), "x\"y");
    const JsonValue *d = v.findPath({"c", "d"});
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->asInt(), -3);
}

TEST(Json, ReportsErrorsAndPreservesKeyOrder)
{
    EXPECT_FALSE(parseJson("{\"a\": }").ok());
    EXPECT_FALSE(parseJson("[1, 2").ok());
    EXPECT_FALSE(parseJson("{} trailing").ok());
    const Result<JsonValue> doc =
        parseJson(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_TRUE(doc.ok());
    ASSERT_EQ(doc.value().members().size(), 3U);
    EXPECT_EQ(doc.value().members()[0].first, "z");
    EXPECT_EQ(doc.value().members()[2].first, "m");
}

TEST(Json, JsonLinesToleratesOnlyATruncatedTail)
{
    const std::string text =
        "{\"a\": 1}\n{\"b\": 2}\n{\"c\": 3, \"tr";
    EXPECT_FALSE(parseJsonLines(text).ok());
    const Result<std::vector<JsonValue>> tolerant =
        parseJsonLines(text, /*stopAtError=*/true);
    ASSERT_TRUE(tolerant.ok());
    EXPECT_EQ(tolerant.value().size(), 2U);
    // Corruption *before* the final line stays an error.
    EXPECT_FALSE(
        parseJsonLines("{bad\n{\"ok\": 1}\n", /*stopAtError=*/true)
            .ok());
}

TEST(Json, NestingDepthIsLimitedNotStackBound)
{
    // kMaxDepth = 64: containers may nest 64 deep below the root;
    // one more must be a clean error, not a stack overflow.
    const auto nested = [](int n) {
        return std::string(static_cast<size_t>(n), '[')
               + std::string(static_cast<size_t>(n), ']');
    };
    const Result<JsonValue> ok = parseJson(nested(65));
    ASSERT_TRUE(ok.ok()) << ok.status().toString();
    EXPECT_TRUE(ok.value().isArray());
    const Result<JsonValue> deep = parseJson(nested(66));
    ASSERT_FALSE(deep.ok());
    EXPECT_NE(deep.status().message().find("nesting"), std::string::npos);
}

TEST(Json, EscapeHandlingAndMidEscapeTruncation)
{
    const Result<JsonValue> esc =
        parseJson(R"("a\n\t\"\\\/\b\f\r")");
    ASSERT_TRUE(esc.ok());
    EXPECT_EQ(esc.value().asString(), "a\n\t\"\\/\b\f\r");

    // \uXXXX passes through verbatim (documented non-decoding).
    const Result<JsonValue> uni = parseJson("\"\\u0041\"");
    ASSERT_TRUE(uni.ok());
    EXPECT_EQ(uni.value().asString(), "\\u0041");

    EXPECT_FALSE(parseJson(R"("bad \q escape")").ok());
    // Input cut off in the middle of an escape sequence.
    EXPECT_FALSE(parseJson("\"abc\\").ok());
    EXPECT_FALSE(parseJson("\"abc").ok());
}

TEST(Json, NonAsciiBytesPassThroughUnvalidated)
{
    // The parser is byte-oriented: UTF-8 (valid or not) inside a
    // string is preserved, not validated — callers own encoding.
    const std::string utf8 = "\"caf\xC3\xA9\"";
    const Result<JsonValue> ok = parseJson(utf8);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().asString(), "caf\xC3\xA9");

    const std::string mangled = "\"\xFF\xFE\"";
    const Result<JsonValue> raw = parseJson(mangled);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(raw.value().asString(), "\xFF\xFE");
}

TEST(Json, HugeAndTinyNumbersFollowStrtod)
{
    const Result<JsonValue> big = parseJson("[1e999, -1e999, 1e-999]");
    ASSERT_TRUE(big.ok());
    const auto &el = big.value().elements();
    ASSERT_EQ(el.size(), 3U);
    EXPECT_TRUE(el[0].isNumber());
    EXPECT_TRUE(std::isinf(el[0].asNumber()));
    EXPECT_TRUE(std::isinf(el[1].asNumber()));
    EXPECT_LT(el[1].asNumber(), 0.0);
    EXPECT_EQ(el[2].asNumber(), 0.0); // underflows to zero

    const Result<JsonValue> b = parseJson("[true, false, 0]");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.value().elements()[0].kind(), JsonValue::Kind::Bool);
    EXPECT_EQ(b.value().elements()[1].kind(), JsonValue::Kind::Bool);
    EXPECT_EQ(b.value().elements()[2].kind(), JsonValue::Kind::Number);
    EXPECT_FALSE(b.value().elements()[0].isNumber());
}

TEST(Manifest, RoundTripsThroughJson)
{
    setManifestRuntimeInfo("avx512", 4, "lrdtool test run");
    const RunManifest m = captureRunManifest();
    EXPECT_FALSE(m.runId.empty());
    EXPECT_GT(m.startUnixMs, 0);

    const Result<JsonValue> doc = parseJson(m.toJson());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const Result<RunManifest> back = manifestFromJson(doc.value());
    ASSERT_TRUE(back.ok()) << back.status().toString();
    const RunManifest &r = back.value();
    EXPECT_EQ(r.runId, m.runId);
    EXPECT_EQ(r.gitSha, m.gitSha);
    EXPECT_EQ(r.buildType, m.buildType);
    EXPECT_EQ(r.cpuModel, m.cpuModel);
    EXPECT_EQ(r.simdLevel, "avx512");
    EXPECT_EQ(r.threads, 4);
    EXPECT_EQ(r.commandLine, "lrdtool test run");
    EXPECT_EQ(r.startUnixMs, m.startUnixMs);
    EXPECT_EQ(r.env, m.env);
}

TEST(Manifest, RejectsNonManifestRecords)
{
    const Result<JsonValue> doc = parseJson("{\"type\": \"sample\"}");
    ASSERT_TRUE(doc.ok());
    EXPECT_FALSE(manifestFromJson(doc.value()).ok());
}

TEST(MemProbe, RssProbeIsSane)
{
    const ProcMemSample mem = sampleProcMem();
    EXPECT_GT(mem.rssBytes, 0);
    EXPECT_GE(mem.peakRssBytes, mem.rssBytes);
}

TEST(MemProbe, ArenaTracksTensorLifetimes)
{
    const TensorArenaStats before = tensorArenaStats();
    constexpr int64_t kBytes = 64 * 64 * sizeof(float);
    {
        Tensor t({64, 64});
        const TensorArenaStats during = tensorArenaStats();
        EXPECT_EQ(during.liveBytes - before.liveBytes, kBytes);
        EXPECT_EQ(during.allocCount - before.allocCount, 1);

        // A move transfers accounting rather than double-counting.
        Tensor moved = std::move(t);
        EXPECT_EQ(tensorArenaStats().liveBytes - before.liveBytes,
                  kBytes);

        // A copy accounts its own payload.
        Tensor copy = moved;
        EXPECT_EQ(tensorArenaStats().liveBytes - before.liveBytes,
                  2 * kBytes);
    }
    const TensorArenaStats after = tensorArenaStats();
    EXPECT_EQ(after.liveBytes, before.liveBytes);
}

TEST(MemProbe, ArenaCountsAreExactAcrossThreads)
{
    // Every thread records into its own cell; the sum must not lose a
    // record, whichever thread frees a tensor, and after the threads
    // that recorded have exited.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    constexpr int64_t kRowBytes = 16 * sizeof(float);
    int64_t droppedBytes = 0;
    for (int i = 0; i < kPerThread; ++i)
        droppedBytes += (1 + i % 5) * kRowBytes;
    const TensorArenaStats before = tensorArenaStats();

    std::optional<Tensor> handed; // built on thread 0, freed on main
    // The raw threads are the point: each one takes a cell and
    // releases it on exit, racing the others.
    std::vector<std::thread> threads; // lrd-lint: allow(thread-outside-parallel)
    for (int w = 0; w < kThreads; ++w)
        threads.emplace_back([&handed, w] {
            // Declared before the thread's first record, so it is
            // destroyed after the thread released its cell.
            thread_local std::optional<Tensor> outlivesCell;
            if (w == kThreads - 1)
                outlivesCell.emplace(Shape{2, 16});
            for (int i = 0; i < kPerThread; ++i) {
                const Tensor t({1 + i % 5, 16});
                (void)t;
            }
            if (w == 0)
                handed.emplace(Shape{3, 16});
        });
    for (auto &t : threads)
        t.join();

    const TensorArenaStats joined = tensorArenaStats();
    EXPECT_EQ(joined.allocCount - before.allocCount,
              kThreads * kPerThread + 2);
    EXPECT_EQ(joined.allocBytes - before.allocBytes,
              kThreads * droppedBytes + 5 * kRowBytes);
    EXPECT_EQ(joined.freedBytes - before.freedBytes,
              kThreads * droppedBytes + 2 * kRowBytes);
    EXPECT_EQ(joined.liveBytes - before.liveBytes, 3 * kRowBytes);

    handed.reset();
    const TensorArenaStats after = tensorArenaStats();
    EXPECT_EQ(after.allocCount, joined.allocCount);
    EXPECT_EQ(after.freedBytes - before.freedBytes,
              kThreads * droppedBytes + 5 * kRowBytes);
    EXPECT_EQ(after.liveBytes, before.liveBytes);
}

/** Required keys per record type, verified over a real sampler run. */
TEST(Sampler, WritesSchemaValidJsonl)
{
    ScratchFile scratch("schema");
    TelemetryConfig config;
    config.intervalMs = 1;
    config.path = scratch.path;
    setManifestRuntimeInfo("test-simd", 2, "telemetry_test schema");
    startTelemetrySampler(config);
    EXPECT_TRUE(telemetrySamplerRunning());

    // Enough work to move every counter family the schema samples.
    Rng rng(7);
    const Tensor a = Tensor::randn({96, 96}, rng);
    const Tensor b = Tensor::randn({96, 96}, rng);
    for (int i = 0; i < 8; ++i) {
        const Tensor c = matmul(a, b);
        ASSERT_LT(firstNonFinite(c.data(), c.size()), 0);
    }
    stopTelemetrySampler();
    EXPECT_FALSE(telemetrySamplerRunning());
    EXPECT_GE(telemetrySampleCount(), 1);

    const Result<std::vector<JsonValue>> records =
        parseJsonLines(slurp(scratch.path));
    ASSERT_TRUE(records.ok()) << records.status().toString();
    const std::vector<JsonValue> &recs = records.value();
    ASSERT_GE(recs.size(), 3U); // manifest + >=1 sample + final.

    EXPECT_EQ(recs.front().stringOr("type", ""), "manifest");
    const Result<RunManifest> m = manifestFromJson(recs.front());
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m.value().simdLevel, "test-simd");

    for (size_t i = 1; i + 1 < recs.size(); ++i) {
        const JsonValue &s = recs[i];
        EXPECT_EQ(s.stringOr("type", ""), "sample") << "record " << i;
        for (const char *key :
             {"t_ms", "rss_bytes", "rss_peak_bytes",
              "arena_live_bytes", "arena_allocs", "arena_alloc_bytes"})
            EXPECT_NE(s.find(key), nullptr)
                << "sample " << i << " lacks " << key;
        for (const char *key : {"phase", "counters", "gauges", "hist"})
            EXPECT_NE(s.find(key), nullptr)
                << "sample " << i << " lacks " << key;
        EXPECT_GT(s.intOr("rss_bytes", 0), 0);
    }

    const JsonValue &fin = recs.back();
    EXPECT_EQ(fin.stringOr("type", ""), "final");
    EXPECT_EQ(fin.stringOr("runId", ""), m.value().runId);
    EXPECT_EQ(fin.intOr("samples", -1),
              static_cast<int64_t>(recs.size()) - 2);
    // Cumulative totals include the GEMM work done above.
    const JsonValue *macs = fin.findPath({"counters", "gemm.macs"});
    ASSERT_NE(macs, nullptr);
    EXPECT_GE(macs->asInt(), 8LL * 96 * 96 * 96);
}

TEST(Sampler, StopWithoutStartIsANoOp)
{
    EXPECT_FALSE(telemetrySamplerRunning());
    stopTelemetrySampler();
    stopTelemetrySampler();
    EXPECT_FALSE(telemetrySamplerRunning());
}

TEST(Sampler, PhaseLabelNestsAndRestores)
{
    EXPECT_STREQ(telemetryPhase(), "");
    {
        const TelemetryPhase outer("outer.phase");
        EXPECT_STREQ(telemetryPhase(), "outer.phase");
        {
            const TelemetryPhase inner("inner.phase");
            EXPECT_STREQ(telemetryPhase(), "inner.phase");
        }
        EXPECT_STREQ(telemetryPhase(), "outer.phase");
    }
    EXPECT_STREQ(telemetryPhase(), "");
}

/**
 * The headline property: numeric results are bitwise identical with
 * the sampler running or absent, at 1, 4, and 8 threads.
 */
TEST(Sampler, NumericsBitwiseIdenticalWithTelemetryOnOrOff)
{
    const World &world = defaultWorld();
    const auto evalOnce = [&] {
        TransformerModel model(tinyLlamaConfig(), 1234);
        Evaluator ev(model, world, EvalOptions{12, 999, false});
        return ev.run(allBenchmarks().front());
    };
    Rng rng(21);
    const Tensor a = Tensor::randn({150, 97}, rng);
    const Tensor b = Tensor::randn({97, 128}, rng);

    for (int threads : {1, 4, 8}) {
        SCOPED_TRACE(threads);
        const EvalResult off = withThreads(threads, evalOnce);
        const Tensor prodOff =
            withThreads(threads, [&] { return matmul(a, b); });

        ScratchFile scratch("determinism");
        TelemetryConfig config;
        config.intervalMs = 1;
        config.path = scratch.path;
        startTelemetrySampler(config);
        const EvalResult on = withThreads(threads, evalOnce);
        const Tensor prodOn =
            withThreads(threads, [&] { return matmul(a, b); });
        stopTelemetrySampler();

        EXPECT_EQ(off.numCorrect, on.numCorrect);
        EXPECT_EQ(off.numTasks, on.numTasks);
        EXPECT_EQ(off.accuracy, on.accuracy); // Exact, not approximate.
        EXPECT_TRUE(bitwiseEqual(prodOff, prodOn));
    }
}

/**
 * Kill-mid-run durability: cancel an evaluation through the real
 * fault machinery while the sampler runs, then check the file still
 * parses — and that a half-written last line (what a SIGKILL leaves)
 * is tolerated by the stopAtError reader.
 */
TEST(Sampler, KilledRunLeavesAReadableFile)
{
    clearFaults();
    clearCancelRequest();
    resetSignalsForTest();

    ScratchFile scratch("killed");
    TelemetryConfig config;
    config.intervalMs = 1;
    config.path = scratch.path;
    startTelemetrySampler(config);

    setFault(FaultSpec{"eval.item", FaultKind::Cancel, 3});
    const World &world = defaultWorld();
    TransformerModel model(tinyLlamaConfig(), 1234);
    Evaluator ev(model, world, EvalOptions{12, 999, false});
    const EvalResult r = ev.run(allBenchmarks().front());
    EXPECT_FALSE(r.status.ok());
    stopTelemetrySampler();
    clearFaults();
    clearCancelRequest();
    resetSignalsForTest();

    std::string text = slurp(scratch.path);
    const Result<std::vector<JsonValue>> whole = parseJsonLines(text);
    ASSERT_TRUE(whole.ok()) << whole.status().toString();
    ASSERT_GE(whole.value().size(), 2U);
    EXPECT_EQ(whole.value().front().stringOr("type", ""), "manifest");

    // Simulate the SIGKILL tail: the file ends with "...}\n", so
    // dropping the newline plus a few bytes is guaranteed to leave
    // the final record cut off mid-write.
    ASSERT_GT(text.size(), 10U);
    text.resize(text.size() - 10);
    EXPECT_FALSE(parseJsonLines(text).ok());
    const Result<std::vector<JsonValue>> prefix =
        parseJsonLines(text, /*stopAtError=*/true);
    ASSERT_TRUE(prefix.ok()) << prefix.status().toString();
    EXPECT_GE(prefix.value().size(), 1U);
    EXPECT_EQ(prefix.value().front().stringOr("type", ""), "manifest");
}

/** Segment rotation keeps the file pair bounded and re-stamped. */
TEST(Sampler, RotatesSegmentsAndRestampsManifest)
{
    ScratchFile scratch("rotate");
    TelemetryConfig config;
    config.intervalMs = 1;
    config.path = scratch.path;
    config.maxSamplesPerSegment = 5;
    startTelemetrySampler(config);
    Rng rng(3);
    const Tensor a = Tensor::randn({64, 64}, rng);
    const Tensor b = Tensor::randn({64, 64}, rng);
    // Keep working until at least one rotation must have happened
    // (the flush request forces roughly one sample per 1 ms slice;
    // the generous iteration cap only bounds a broken sampler).
    for (int i = 0; i < 200000 && telemetrySampleCount() <= 12; ++i) {
        const Tensor c = matmul(a, b);
        ASSERT_LT(firstNonFinite(c.data(), c.size()), 0);
        requestTelemetryFlush();
    }
    ASSERT_GT(telemetrySampleCount(), 12);
    stopTelemetrySampler();

    const Result<std::vector<JsonValue>> current =
        parseJsonLines(slurp(scratch.path));
    ASSERT_TRUE(current.ok());
    EXPECT_EQ(current.value().front().stringOr("type", ""), "manifest");
    const Result<std::vector<JsonValue>> previous =
        parseJsonLines(slurp(scratch.path + ".1"));
    ASSERT_TRUE(previous.ok());
    EXPECT_EQ(previous.value().front().stringOr("type", ""),
              "manifest");
    // Both segments carry the same run identity.
    EXPECT_EQ(current.value().front().stringOr("runId", "a"),
              previous.value().front().stringOr("runId", "b"));
}

} // namespace
} // namespace lrd
