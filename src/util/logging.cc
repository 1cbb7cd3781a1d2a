#include "logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>

#include "worker_lane.h"

namespace lrd {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Info};
std::atomic<bool> g_timestamps{false};

/** Steady-clock anchor for the elapsed-seconds prefix. */
std::chrono::steady_clock::time_point
processEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

/** Build and emit one log line in a single stream write, so lines
 *  from concurrent workers never interleave mid-line. */
void
emit(const char *tag, const std::string &msg)
{
    std::string line;
    if (g_timestamps.load(std::memory_order_relaxed)) {
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now()
                                          - processEpoch())
                .count();
        char prefix[48];
        std::snprintf(prefix, sizeof(prefix), "[%9.3fs w%d] ", secs,
                      workerLane());
        line += prefix;
    }
    line += tag;
    line += msg;
    line += '\n';
    std::cerr << line;
}

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogTimestamps(bool on)
{
    g_timestamps.store(on, std::memory_order_relaxed);
}

LogSpec
parseLogSpec(const std::string &spec)
{
    LogSpec out;
    std::string level = spec;
    const size_t plus = spec.find('+');
    if (plus != std::string::npos) {
        level = spec.substr(0, plus);
        const std::string suffix = spec.substr(plus + 1);
        if (suffix == "ts")
            out.timestamps = true;
        else
            fatal(strCat("LRD_LOG: unknown suffix '+", suffix,
                         "' (only '+ts' is recognized)"));
    }
    if (level == "debug")
        out.level = LogLevel::Debug;
    else if (level == "info")
        out.level = LogLevel::Info;
    else if (level == "warn")
        out.level = LogLevel::Warn;
    else if (level == "error")
        out.level = LogLevel::Error;
    else
        fatal(strCat("LRD_LOG: unknown level '", level,
                     "' (expected debug|info|warn|error, optionally "
                     "with '+ts')"));
    return out;
}

namespace detail {

void
streamPart(std::ostream &os, const std::vector<int64_t> &shape)
{
    os << "[";
    for (size_t i = 0; i < shape.size(); ++i) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << "]";
}

} // namespace detail

void
inform(const std::string &msg)
{
    if (logLevel() <= LogLevel::Info)
        emit("info: ", msg);
}

void
warn(const std::string &msg)
{
    if (logLevel() <= LogLevel::Warn)
        emit("warn: ", msg);
}

void
fatal(const std::string &msg)
{
    throw std::runtime_error("fatal: " + msg);
}

void
panic(const std::string &msg)
{
    throw std::logic_error("panic: " + msg);
}

} // namespace lrd
