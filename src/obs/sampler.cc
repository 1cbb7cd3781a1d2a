#include "sampler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread> // lrd-lint: allow(thread-outside-parallel)
#include <utility>
#include <vector>

#include "manifest.h"
#include "metrics.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/memprobe.h"
#include "util/timer.h"

namespace lrd {

namespace {

/** Signal-handler-to-sampler mailbox; relaxed store on request. */
std::atomic<bool> gFlushRequested{false};

/** Current pipeline phase label (static-duration strings only). */
std::atomic<const char *> gPhase{""};

/** All sampler state behind one mutex (cold: one lock per tick). */
struct SamplerState
{
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
    std::thread worker; // lrd-lint: allow(thread-outside-parallel)

    TelemetryConfig config;
    RunManifest manifest;
    std::FILE *file = nullptr;
    Timer sinceStart;
    std::atomic<int64_t> samples{0};
    int64_t segmentSamples = 0;
    int64_t rotations = 0;
    /** Counter totals at the previous sample, in registry order. */
    std::vector<std::pair<std::string, int64_t>> prevCounters;
};

SamplerState &
state()
{
    // Leaked: stopTelemetrySampler may run from atexit-era shutdown
    // paths after static destructors would have torn this down.
    static SamplerState *s = new SamplerState;
    return *s;
}

void
appendNonZeroDeltas(
    std::ostringstream &oss,
    const std::vector<std::pair<std::string, int64_t>> &now,
    const std::vector<std::pair<std::string, int64_t>> &prev)
{
    bool first = true;
    for (size_t i = 0; i < now.size(); ++i) {
        // Registry counters are append-only, so prev (if present) is
        // a strict prefix of now in identical order.
        const int64_t before = i < prev.size() ? prev[i].second : 0;
        const int64_t delta = now[i].second - before;
        if (delta == 0)
            continue;
        oss << (first ? "" : ", ") << jsonQuote(now[i].first) << ": "
            << delta;
        first = false;
    }
}

void
appendGauges(std::ostringstream &oss, const MetricsSnapshot &snap)
{
    bool first = true;
    for (const auto &[name, value] : snap.gauges) {
        if (value == 0.0)
            continue;
        oss << (first ? "" : ", ") << jsonQuote(name) << ": " << value;
        first = false;
    }
}

void
appendHistograms(std::ostringstream &oss, const MetricsSnapshot &snap)
{
    bool first = true;
    for (const auto &[name, hs] : snap.histograms) {
        if (hs.count == 0)
            continue;
        oss << (first ? "" : ", ") << jsonQuote(name)
            << ": {\"count\": " << hs.count << ", \"p50\": " << hs.p50()
            << ", \"p90\": " << hs.p90() << ", \"p99\": " << hs.p99()
            << "}";
        first = false;
    }
}

void
appendMemory(std::ostringstream &oss)
{
    const ProcMemSample mem = sampleProcMem();
    const TensorArenaStats arena = tensorArenaStats();
    oss << "\"rss_bytes\": " << mem.rssBytes
        << ", \"rss_peak_bytes\": " << mem.peakRssBytes
        << ", \"arena_live_bytes\": " << arena.liveBytes
        << ", \"arena_allocs\": " << arena.allocCount
        << ", \"arena_alloc_bytes\": " << arena.allocBytes;
}

/** Write one line + flush; callers hold the state mutex. */
void
writeLine(SamplerState &s, const std::string &line)
{
    if (!s.file)
        return;
    std::fputs(line.c_str(), s.file);
    std::fputc('\n', s.file);
    std::fflush(s.file);
}

/** Rotate <path> -> <path>.1 and start a fresh manifest-stamped
 *  segment; callers hold the state mutex. */
void
rotateSegment(SamplerState &s)
{
    std::fclose(s.file);
    s.file = nullptr;
    const std::string old = s.config.path + ".1";
    if (std::rename(s.config.path.c_str(), old.c_str()) != 0) {
        warn(strCat("telemetry: cannot rotate ", s.config.path,
                    "; sampling stops"));
        return;
    }
    s.file = std::fopen(s.config.path.c_str(), "wb");
    if (!s.file) {
        warn(strCat("telemetry: cannot reopen ", s.config.path,
                    " after rotation; sampling stops"));
        return;
    }
    ++s.rotations;
    s.segmentSamples = 0;
    writeLine(s, s.manifest.toJson());
}

/** Take one sample; callers hold the state mutex. */
void
takeSample(SamplerState &s)
{
    if (!s.file)
        return;
    if (s.segmentSamples >= s.config.maxSamplesPerSegment) {
        rotateSegment(s);
        if (!s.file)
            return;
    }
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    std::ostringstream oss;
    oss << "{\"type\": \"sample\", \"t_ms\": "
        << static_cast<int64_t>(s.sinceStart.elapsedMillis())
        << ", \"phase\": "
        << jsonQuote(gPhase.load(std::memory_order_relaxed)) << ", ";
    appendMemory(oss);
    oss << ", \"counters\": {";
    appendNonZeroDeltas(oss, snap.counters, s.prevCounters);
    oss << "}, \"gauges\": {";
    appendGauges(oss, snap);
    oss << "}, \"hist\": {";
    appendHistograms(oss, snap);
    oss << "}}";
    writeLine(s, oss.str());
    s.prevCounters = snap.counters;
    s.segmentSamples++;
    s.samples.fetch_add(1, std::memory_order_relaxed);
}

/** Final cumulative record; callers hold the state mutex. */
void
writeFinalRecord(SamplerState &s)
{
    if (!s.file)
        return;
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    std::ostringstream oss;
    oss << "{\"type\": \"final\", \"t_ms\": "
        << static_cast<int64_t>(s.sinceStart.elapsedMillis())
        << ", \"runId\": " << jsonQuote(s.manifest.runId)
        << ", \"samples\": " << s.samples.load(std::memory_order_relaxed)
        << ", \"rotations\": " << s.rotations << ", ";
    appendMemory(oss);
    oss << ", \"counters\": {";
    // Totals, not deltas: diff an empty "previous" snapshot.
    appendNonZeroDeltas(oss, snap.counters, {});
    oss << "}, \"gauges\": {";
    appendGauges(oss, snap);
    oss << "}, \"hist\": {";
    appendHistograms(oss, snap);
    oss << "}}";
    writeLine(s, oss.str());
}

void
samplerMain()
{
    SamplerState &s = state();
    std::unique_lock<std::mutex> lock(s.mu);
    const auto interval =
        std::chrono::milliseconds(s.config.intervalMs);
    // Wait in short slices so a flush request (one relaxed store from
    // the signal handler, which cannot notify a cv) lands within
    // ~50ms even under long sampling intervals.
    const auto slice =
        interval < std::chrono::milliseconds(50)
            ? interval
            : std::chrono::milliseconds(50);
    Timer sinceSample;
    while (!s.stopping) {
        s.cv.wait_for(lock, slice);
        if (s.stopping)
            break;
        const bool flushNow =
            gFlushRequested.exchange(false, std::memory_order_relaxed);
        if (!flushNow
            && sinceSample.elapsedMillis()
                   < static_cast<double>(s.config.intervalMs))
            continue;
        takeSample(s);
        sinceSample.reset();
    }
}

} // namespace

Result<TelemetryConfig>
parseTelemetrySpec(const std::string &spec)
{
    TelemetryConfig config;
    const size_t colon = spec.find(':');
    const std::string ms = spec.substr(0, colon);
    if (ms.empty()
        || ms.find_first_not_of("0123456789") != std::string::npos)
        return Status(StatusCode::InvalidArgument, "telemetry.parse",
                      strCat("LRD_TELEMETRY: bad interval '", ms,
                             "' (expected <ms>[:path])"));
    config.intervalMs = std::atoi(ms.c_str());
    if (config.intervalMs < 1)
        return Status(StatusCode::InvalidArgument, "telemetry.parse",
                      "LRD_TELEMETRY: interval must be >= 1 ms");
    if (colon != std::string::npos) {
        config.path = spec.substr(colon + 1);
        if (config.path.empty())
            return Status(StatusCode::InvalidArgument, "telemetry.parse",
                          "LRD_TELEMETRY: empty path after ':'");
    }
    return config;
}

void
startTelemetrySampler(const TelemetryConfig &config)
{
    SamplerState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.worker.joinable()) {
        warn("telemetry: sampler already running");
        return;
    }
    s.file = std::fopen(config.path.c_str(), "wb");
    if (!s.file) {
        warn(strCat("telemetry: cannot open ", config.path,
                    "; sampling disabled"));
        return;
    }
    s.config = config;
    s.manifest = captureRunManifest();
    s.stopping = false;
    s.samples.store(0, std::memory_order_relaxed);
    s.segmentSamples = 0;
    s.rotations = 0;
    s.prevCounters.clear();
    s.sinceStart.reset();
    gFlushRequested.store(false, std::memory_order_relaxed);
    MetricsRegistry::instance().setEnabled(true);
    writeLine(s, s.manifest.toJson());
    // The sampler is a read-only observer, never a compute worker, so
    // it lives outside the pool's deterministic lane structure.
    // lrd-lint: allow(thread-outside-parallel)
    s.worker = std::thread(samplerMain);
    inform(strCat("telemetry: sampling every ", config.intervalMs,
                  " ms to ", config.path, " (run ", s.manifest.runId,
                  ")"));
}

void
stopTelemetrySampler()
{
    SamplerState &s = state();
    std::thread worker; // lrd-lint: allow(thread-outside-parallel)
    {
        std::lock_guard<std::mutex> lock(s.mu);
        if (!s.worker.joinable()) {
            // Never started (or already stopped): nothing to join,
            // but an open file from a failed start cannot exist —
            // start only spawns after a successful open.
            return;
        }
        s.stopping = true;
        worker = std::move(s.worker);
    }
    s.cv.notify_all();
    worker.join();
    std::lock_guard<std::mutex> lock(s.mu);
    takeSample(s); // One last delta so short phases are not lost.
    writeFinalRecord(s);
    if (s.file) {
        std::fclose(s.file);
        s.file = nullptr;
        inform(strCat("telemetry: wrote ",
                      s.samples.load(std::memory_order_relaxed),
                      " samples to ", s.config.path));
    }
}

bool
telemetrySamplerRunning() // lrd-lint: allow(dead-symbol) test hook: Sampler.WritesSchemaValidJsonl
{
    SamplerState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.worker.joinable();
}

int64_t
telemetrySampleCount() // lrd-lint: allow(dead-symbol) test hook: Sampler.WritesSchemaValidJsonl
{
    return state().samples.load(std::memory_order_relaxed);
}

void
requestTelemetryFlush()
{
    gFlushRequested.store(true, std::memory_order_relaxed);
}

const char *
setTelemetryPhase(const char *phase)
{
    return gPhase.exchange(phase ? phase : "",
                           std::memory_order_relaxed);
}

const char *
telemetryPhase() // lrd-lint: allow(dead-symbol) test hook: Sampler.PhaseLabelNestsAndRestores
{
    return gPhase.load(std::memory_order_relaxed);
}

} // namespace lrd
