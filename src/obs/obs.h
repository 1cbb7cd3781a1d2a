/**
 * @file
 * Process-level observability wiring: environment-variable
 * configuration and end-of-run artifact flushing.
 *
 * Recognized environment variables (read by initObservabilityFromEnv,
 * which lrdtool calls at startup):
 *
 *   LRD_LOG=<level>[+ts]  log level (debug|info|warn|error); "+ts"
 *                         adds timestamp + worker-index prefixes.
 *   LRD_TRACE=<file>      enable tracing; flushObservability() writes
 *                         the chrome-trace timeline to <file> and an
 *                         exact per-span summary to <file>.summary.csv.
 *   LRD_STATS=<file>      enable metrics; flushObservability() writes
 *                         the registry JSON to <file> ("-" = stdout).
 *   LRD_TELEMETRY=<ms>[:path]
 *                         flight-recorder time series: sample counter
 *                         deltas / gauges / histogram quantiles / RSS
 *                         / arena bytes every <ms> into a JSONL file
 *                         (default lrd_telemetry.jsonl). The sampler
 *                         itself starts at startTelemetryFromEnv() so
 *                         the entry point can push runtime facts into
 *                         the manifest first (obs/manifest.h).
 */

#ifndef LRD_OBS_OBS_H
#define LRD_OBS_OBS_H

#include <string>

namespace lrd {

/**
 * Apply LRD_LOG / LRD_TRACE / LRD_STATS from the environment.
 * @throws std::runtime_error (via fatal()) on a malformed LRD_LOG.
 */
void initObservabilityFromEnv();

/**
 * Start the telemetry sampler if LRD_TELEMETRY was parsed by
 * initObservabilityFromEnv (no-op otherwise). Separate from env
 * parsing so callers can setManifestRuntimeInfo() in between.
 */
void startTelemetryFromEnv();

/**
 * Write any trace/stats artifacts requested via the environment
 * (warning, not informing, on a failed write) and stop the telemetry
 * sampler (writing its final record). Idempotent: the second and
 * later calls are no-ops, so the normal exit path and the
 * graceful-shutdown path may both call it.
 */
void flushObservability();

/** Paths captured by initObservabilityFromEnv ("" = not requested). */
const std::string &obsTracePath();
const std::string &obsStatsPath();
const std::string &obsTelemetryPath();

} // namespace lrd

#endif // LRD_OBS_OBS_H
