/**
 * @file
 * Status / error reporting helpers in the spirit of gem5's logging.hh.
 *
 * - inform(): normal operating message.
 * - warn():   something questionable but survivable.
 * - fatal():  user error (bad configuration / arguments); throws
 *             std::runtime_error so callers and tests can catch it.
 * - panic():  internal invariant violation (a library bug); throws
 *             std::logic_error.
 */

#ifndef LRD_UTIL_LOGGING_H
#define LRD_UTIL_LOGGING_H

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace lrd {

/** Severity levels for log output. Nothing logs at Debug; LRD_LOG=debug
 *  is accepted and prints what Info prints. */
enum class LogLevel { Debug, Info, Warn, Error };

/**
 * Global minimum level actually printed (default: Info). The level is
 * stored atomically: pool workers log concurrently with tests or the
 * CLI adjusting verbosity.
 */
void setLogLevel(LogLevel level);
LogLevel logLevel();

/**
 * Prefix every log line with elapsed seconds and the worker lane,
 * e.g. "[  1.042s w3] info: ...". Off by default; enabled by the
 * "+ts" suffix of LRD_LOG (see parseLogSpec).
 */
void setLogTimestamps(bool on);

/** A parsed LRD_LOG specification. */
struct LogSpec
{
    LogLevel level = LogLevel::Info;
    bool timestamps = false;
};

/**
 * Parse an LRD_LOG value: one of debug|info|warn|error, optionally
 * suffixed with "+ts" to enable timestamp + worker-index prefixes
 * (e.g. "debug+ts").
 * @throws std::runtime_error (via fatal()) on unknown values.
 */
LogSpec parseLogSpec(const std::string &spec);

/** Print an informational message to stderr (when level permits). */
void inform(const std::string &msg);

/** Print a warning message to stderr (when level permits). */
void warn(const std::string &msg);

/**
 * Report an unrecoverable user-facing error.
 * @throws std::runtime_error always.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation.
 * @throws std::logic_error always.
 */
[[noreturn]] void panic(const std::string &msg);

namespace detail {

/** Stream one strCat part with its own operator<<. */
template <typename T>
void
streamPart(std::ostream &os, const T &part)
{
    os << part;
}

/** A std::vector<int64_t> (a tensor Shape) prints as "[a, b, c]". */
void streamPart(std::ostream &os, const std::vector<int64_t> &shape);

} // namespace detail

/**
 * Variadic stream-style message builder: strCat(1, " + ", 2.5). A
 * Shape part prints as "[a, b, c]".
 */
template <typename... Args>
std::string
strCat(const Args &...args)
{
    std::ostringstream oss;
    (detail::streamPart(oss, args), ...);
    return oss.str();
}

/**
 * Require a condition; calls fatal(strCat(parts...)) when violated.
 *
 * The message is passed as parts and formatted only on failure, so a
 * passing check costs one branch: require(n == 4, "got ", n, " of ",
 * t.shape()). A std::string temporary as a part (strCat(...),
 * t.describe(), "a" + b) would be built on every call, so it does not
 * compile; pass its pieces instead (a Shape prints as "[a, b]").
 */
template <class... Parts>
void
require(bool cond, Parts &&...parts)
{
    static_assert(
        !(std::is_same_v<std::remove_const_t<Parts>, std::string> || ...),
        "require: pass the message as parts, not a built std::string");
    if (!cond) [[unlikely]]
        fatal(strCat(parts...));
}

} // namespace lrd

#endif // LRD_UTIL_LOGGING_H
