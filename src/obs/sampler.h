/**
 * @file
 * Time-series telemetry sampler: a background thread that appends one
 * JSONL record per tick to a crash-durable, size-bounded file.
 *
 * File layout (one JSON object per line):
 *
 *   {"type":"manifest", ...}   RunManifest — always the first record
 *                              of every segment.
 *   {"type":"sample","t_ms":..,"phase":"train",
 *    "rss_bytes":..,"rss_peak_bytes":..,
 *    "arena_live_bytes":..,"arena_allocs":..,"arena_alloc_bytes":..,
 *    "counters":{<name>:<delta since previous sample>, ...},
 *    "gauges":{<name>:<current value>, ...},
 *    "hist":{<name>:{"count":..,"p50":..,"p90":..,"p99":..}, ...}}
 *   {"type":"final","t_ms":..,"runId":..,"samples":..,"rotations":..,
 *    "rss_bytes":..,"rss_peak_bytes":..,
 *    "arena_live_bytes":..,"arena_allocs":..,"arena_alloc_bytes":..,
 *    "counters":{<cumulative totals>},"gauges":{..},"hist":{..}}
 *
 * Durability and bounding: every record is fflush()ed as it is
 * written, so a SIGKILL loses at most the line being appended (and
 * parseJsonLines(stopAtError) tolerates exactly that). When a segment
 * reaches maxSamplesPerSegment the file rotates to "<path>.1" and a
 * fresh segment (re-stamped with the manifest) starts — a two-segment
 * ring that bounds disk while keeping the most recent window.
 *
 * Determinism rules (the reason this thread is allowed to exist):
 *
 * - The sampler is read-only over shared state: relaxed snapshots of
 *   the metric shards, /proc reads, arena counter loads. It never
 *   records metrics, takes pool work, or touches the numeric core, so
 *   numeric results are bitwise identical with telemetry on or off at
 *   any LRD_THREADS (tests/telemetry_test.cc holds this).
 * - It waits on a condition variable in short slices (never a raw
 *   sleep) so stop/flush requests land promptly.
 * - requestTelemetryFlush() is a single relaxed atomic store —
 *   async-signal-safe, called by the SIGINT/SIGTERM handler so a
 *   cancelled run still gets its telemetry flushed to disk even if
 *   the cooperative drain then hangs or a second signal force-exits.
 *
 * Enabled with LRD_TELEMETRY=<ms>[:path] (see obs.h).
 */

#ifndef LRD_OBS_SAMPLER_H
#define LRD_OBS_SAMPLER_H

#include <cstdint>
#include <string>

#include "util/status.h"

namespace lrd {

/** Parsed LRD_TELEMETRY specification. */
struct TelemetryConfig
{
    int intervalMs = 250;
    std::string path = "lrd_telemetry.jsonl";
    /** Samples per file segment before rotating to "<path>.1". */
    int64_t maxSamplesPerSegment = 100000;
};

/** Parse "<ms>" or "<ms>:<path>" (fatal-free; ms must be >= 1). */
Result<TelemetryConfig> parseTelemetrySpec(const std::string &spec);

/**
 * Capture the run manifest, open the JSONL file, and start the
 * sampler thread. No-op (with a warning) if already running or the
 * file cannot be opened. Implicitly enables metrics recording, since
 * counter deltas are the payload.
 */
void startTelemetrySampler(const TelemetryConfig &config);

/**
 * Write the final cumulative record, close the file, and join the
 * thread. Idempotent; safe to call when never started.
 */
void stopTelemetrySampler();

bool telemetrySamplerRunning();

/** Samples written since the sampler started (all segments). */
int64_t telemetrySampleCount();

/**
 * Ask the sampler to take an immediate sample and push it to disk.
 * One relaxed atomic store: async-signal-safe by design — the
 * graceful-shutdown signal handler calls this directly.
 */
void requestTelemetryFlush();

/**
 * Label the pipeline phase recorded with each sample ("train",
 * "eval", "dse", ...). `phase` must be a string literal or other
 * static-duration string. Returns the previous phase so scoped
 * callers (TelemetryPhase) can restore it.
 */
const char *setTelemetryPhase(const char *phase);

/** Current phase label ("" when none set). */
const char *telemetryPhase();

/**
 * RAII phase label: tags every sample taken while the scope is open
 * with `phase` and restores the previous label on exit, so nested
 * phases (an evaluator inside a DSE sweep) attribute correctly.
 */
class TelemetryPhase
{
  public:
    explicit TelemetryPhase(const char *phase)
        : prev_(setTelemetryPhase(phase))
    {
    }
    ~TelemetryPhase() { setTelemetryPhase(prev_); }
    TelemetryPhase(const TelemetryPhase &) = delete;
    TelemetryPhase &operator=(const TelemetryPhase &) = delete;

  private:
    const char *prev_;
};

} // namespace lrd

#endif // LRD_OBS_SAMPLER_H
