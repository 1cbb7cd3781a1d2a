#include "obs.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "metrics.h"
#include "sampler.h"
#include "trace.h"
#include "util/logging.h"

namespace lrd {

namespace {

/** Export destinations, set once by initObservabilityFromEnv() on the
 *  main thread before any worker spawns (leaked: flush may run from
 *  atexit, after static destructors would have torn a global down). */
struct ObsPaths
{
    std::string trace;
    std::string stats;
    /** Telemetry config parsed from LRD_TELEMETRY; armed = start it. */
    TelemetryConfig telemetry;
    bool telemetryArmed = false;
};

/** First flushObservability() wins; later calls are no-ops. */
std::atomic<bool> gFlushed{false};

ObsPaths &
obsPaths()
{
    static ObsPaths *p = new ObsPaths;
    return *p;
}

/** Write content to path ("-" = stdout); true only once flushed and
 *  closed without error (a full disk fails there), else warns. */
bool
writeFileOrWarn(const std::string &path, const std::string &content,
                const char *what)
{
    const bool toStdout = path == "-";
    std::FILE *f = toStdout ? stdout : std::fopen(path.c_str(), "wb");
    if (!f) {
        warn(strCat("cannot open ", path, " for ", what));
        return false;
    }
    bool ok = std::fwrite(content.data(), 1, content.size(), f)
              == content.size();
    ok = std::fflush(f) == 0 && ok;
    if (!toStdout)
        ok = std::fclose(f) == 0 && ok;
    if (!ok)
        warn(strCat("failed to write ", what, " to ", path));
    return ok;
}

} // namespace

const std::string &
obsTracePath()
{
    return obsPaths().trace;
}

const std::string &
obsStatsPath()
{
    return obsPaths().stats;
}

const std::string &
obsTelemetryPath()
{
    static const std::string empty;
    return obsPaths().telemetryArmed ? obsPaths().telemetry.path : empty;
}

void
initObservabilityFromEnv()
{
    if (const char *spec = std::getenv("LRD_LOG")) {
        const LogSpec parsed = parseLogSpec(spec);
        setLogLevel(parsed.level);
        setLogTimestamps(parsed.timestamps);
    }
    if (const char *path = std::getenv("LRD_TRACE")) {
        if (path[0] == '\0')
            fatal("LRD_TRACE: expected a file path");
        obsPaths().trace = path;
        Tracer::instance().setEnabled(true);
    }
    if (const char *path = std::getenv("LRD_STATS")) {
        if (path[0] == '\0')
            fatal("LRD_STATS: expected a file path (or '-' for stdout)");
        obsPaths().stats = path;
        MetricsRegistry::instance().setEnabled(true);
    }
    if (const char *spec = std::getenv("LRD_TELEMETRY")) {
        Result<TelemetryConfig> parsed = parseTelemetrySpec(spec);
        if (!parsed.ok())
            fatal(parsed.status().message());
        obsPaths().telemetry = std::move(parsed).value();
        obsPaths().telemetryArmed = true;
        // Counter deltas are the telemetry payload; recording must be
        // on before any instrumented work runs, not at sampler start.
        MetricsRegistry::instance().setEnabled(true);
    }
}

void
startTelemetryFromEnv()
{
    if (obsPaths().telemetryArmed)
        startTelemetrySampler(obsPaths().telemetry);
}

void
flushObservability()
{
    if (gFlushed.exchange(true, std::memory_order_acq_rel))
        return;
    stopTelemetrySampler();
    const std::string &trace = obsPaths().trace;
    if (!trace.empty()) {
        const Tracer &tracer = Tracer::instance();
        const std::string csv = trace + ".summary.csv";
        const bool wroteJson = writeFileOrWarn(
            trace, tracer.toChromeJson(), "chrome trace JSON");
        const bool wroteCsv =
            writeFileOrWarn(csv, tracer.toCsv(), "trace CSV summary");
        if (const int64_t dropped = tracer.droppedEvents(); dropped > 0)
            warn(strCat("trace timeline lost its ", dropped,
                        " oldest events to ring overflow (marked in ",
                        trace, "; the summary CSV counts every span)"));
        if (wroteJson && wroteCsv)
            inform(strCat("wrote trace to ", trace, " (+ ", csv, ")"));
    }
    const std::string &stats = obsPaths().stats;
    if (!stats.empty()
        && writeFileOrWarn(stats, MetricsRegistry::instance().toJson(),
                           "metrics JSON")
        && stats != "-")
        inform(strCat("wrote metrics to ", stats));
}

} // namespace lrd
