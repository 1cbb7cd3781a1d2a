/**
 * @file
 * Request / response shapes for the serving layer.
 *
 * Time in the serving layer is counted in *ticks*: one tick is one
 * pass of the server control loop (admission, batch formation, batch
 * execution, delivery). Arrival times, deadlines, and retry backoff
 * are all expressed in ticks, which is what makes every scheduling
 * decision — shed, deadline-miss, degradation transitions — a pure
 * function of the workload and the configuration, bitwise
 * reproducible at any LRD_THREADS. Wall-clock latency is *recorded*
 * (serve.latency.us histogram) but never drives a decision.
 */

#ifndef LRD_SERVE_REQUEST_H
#define LRD_SERVE_REQUEST_H

#include <cstdint>

#include "model/embedding.h"
#include "util/status.h"

namespace lrd {

/** Terminal (and initial) states of a request's lifecycle. */
enum class ServeOutcome : int
{
    Pending = 0,    ///< Not yet settled (never appears in a report).
    Responded,      ///< Scored and delivered (status may be degraded).
    Shed,           ///< Rejected at admission after bounded retries.
    DeadlineMissed, ///< Expired before its batch executed.
    Cancelled,      ///< Drained by a shutdown before scoring.
    Unavailable,    ///< Scored but delivery failed after retries.
};

/**
 * Client-side backoff in ticks: attempt k (0-based) waits
 * baseTicks * 2^k, capped at maxTicks. Pure integer arithmetic on the
 * attempt number, never wall clock, so a shed request re-offers itself
 * at the same tick at any LRD_THREADS.
 */
inline int64_t
backoffTicks(int64_t baseTicks, int attempt, int64_t maxTicks = 1 << 20)
{
    if (baseTicks <= 0)
        return 0;
    int64_t ticks = baseTicks;
    for (int k = 0; k < attempt && ticks < maxTicks; ++k)
        ticks *= 2;
    return ticks < maxTicks ? ticks : maxTicks;
}

/** Whether an outcome is terminal (everything except Pending). */
inline bool
serveOutcomeTerminal(ServeOutcome outcome)
{
    return outcome != ServeOutcome::Pending;
}

/** One sequence-scoring request (the serving unit of work). */
struct ServeRequest
{
    int64_t id = 0;          ///< Dense [0, n) index into the report.
    int tenant = 0;          ///< Originating tenant (for fairness stats).
    TokenSeq context;        ///< Conditioning prefix.
    TokenSeq continuation;   ///< Tokens to score given the prefix.
    int64_t arrivalTick = 0; ///< First tick this request may be offered.
    /** Absolute tick after which the request is worthless. */
    int64_t deadlineTick = 0;
    int attempt = 0; ///< Client-side admission attempts so far.
};

/** The settled result of one request. */
struct ServeResponse
{
    int64_t id = -1;
    ServeOutcome outcome = ServeOutcome::Pending;
    /** Summed continuation log-probability (Responded only). */
    double score = 0.0;
    /** True when scored by the lower-rank fallback variant. */
    bool degraded = false;
    /** Tick at which the outcome settled. */
    int64_t settledTick = 0;
    /** Non-ok for every outcome except a clean Responded. */
    Status status;
};

} // namespace lrd

#endif // LRD_SERVE_REQUEST_H
