/**
 * @file
 * Cooperative cancellation.
 *
 * One process-wide cancel token: anything (a signal handler, an
 * injected cancel fault, a test) can request cancellation, and every
 * long-running loop — the thread pool's chunk dispatcher, trainer
 * steps, evaluator items, DSE batches, Jacobi sweeps — polls
 * cancelRequested() (a single relaxed atomic load when idle) and
 * winds down cooperatively: in-flight chunks finish, partial outputs
 * are discarded or marked partial, final checkpoints are written, and
 * the cause surfaces as a Cancelled Status.
 *
 * This module sits below src/parallel/ in the layering: the pool
 * includes cancel.h, never the reverse.
 */

#ifndef LRD_ROBUST_CANCEL_H
#define LRD_ROBUST_CANCEL_H

#include "util/status.h"

namespace lrd {

/** Who asked for the process to wind down. */
enum class CancelCause : int
{
    None = 0,
    Signal, ///< SIGINT/SIGTERM arrived (robust/signal.h).
    Test,   ///< Simulated kill from an injected cancel fault.
};

/** Stable lowercase name for a cause ("signal", ...). */
const char *cancelCauseName(CancelCause cause);

/**
 * Whether cancellation has been requested. The disarmed fast path is
 * one relaxed atomic load — cheap enough for per-chunk and per-sweep
 * polling.
 */
bool cancelRequested();

/**
 * Request cooperative cancellation. The first cause wins; later
 * requests are no-ops. Async-signal-safe: performs only lock-free
 * atomic stores (the signal handler calls this directly). `site` must
 * be a string literal or other static-duration string.
 */
void requestCancel(CancelCause cause, const char *site);

/** The winning cause (None while not cancelled). */
CancelCause cancelCause();

/** Site that requested cancellation ("" while not cancelled). */
const char *cancelSite();

/**
 * The active cancellation as a Status at the observing `site`:
 * Cancelled when cancellation was requested, ok otherwise. This is
 * the one call pipelines make at their loop boundaries.
 */
Status cancelStatus(const char *site);

/** Reset the token (tests, and in-process resume after a cancel). */
void clearCancelRequest();

} // namespace lrd

#endif // LRD_ROBUST_CANCEL_H
