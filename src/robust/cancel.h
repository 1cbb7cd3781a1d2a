/**
 * @file
 * Cooperative cancellation and deadlines.
 *
 * One process-wide cancel token: anything (a signal handler, an
 * expired deadline, a test) can request cancellation, and every
 * long-running loop — the thread pool's chunk dispatcher, trainer
 * steps, evaluator items, DSE batches, Jacobi sweeps — polls
 * cancelRequested() (a single relaxed atomic load when idle) and
 * winds down cooperatively: in-flight chunks finish, partial outputs
 * are discarded or marked partial, final checkpoints are written, and
 * the cause surfaces as a Status (Cancelled / DeadlineExceeded).
 *
 * Deadlines come in two flavors (LRD_DEADLINE):
 *
 * - Work-unit budgets, `steps:<n>` / `items:<n>`: consumed only at
 *   serial program points (top of a trainer step, before an evaluator
 *   sweep, before a DSE batch) via consumeWorkBudget(), which
 *   admit-alls when called from inside a parallel region — so expiry
 *   lands at exactly the same work unit at any LRD_THREADS and the
 *   truncated run is bitwise reproducible.
 * - Wall clock, `wall:<secs>`: polled by checkCancellation() at
 *   pipeline boundaries only (never inside the numeric core), read
 *   off steady_clock.
 *
 * This module sits below src/parallel/ in the layering: the pool
 * includes cancel.h, never the reverse. Serial-point detection goes
 * through util/worker_lane.h.
 */

#ifndef LRD_ROBUST_CANCEL_H
#define LRD_ROBUST_CANCEL_H

#include <cstdint>
#include <string>

#include "util/status.h"

namespace lrd {

/** Who asked for the process to wind down. */
enum class CancelCause : int
{
    None = 0,
    Signal,   ///< SIGINT/SIGTERM arrived (robust/signal.h).
    Deadline, ///< An LRD_DEADLINE budget or wall limit expired.
    Test,     ///< Simulated kill from an injected cancel fault.
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
 * DeadlineExceeded for an expired deadline, Cancelled for a signal or
 * test kill, ok when no cancellation is pending.
 */
Status cancelStatus(const char *site);

/** Reset the token (tests, and in-process resume after a cancel). */
void clearCancelRequest();

// ---------------------------------------------------------------------
// Deadlines

/** Unit of an armed deadline. */
enum class DeadlineKind : int
{
    None = 0,
    Steps, ///< Trainer optimizer steps / DSE candidates.
    Items, ///< Evaluator benchmark items.
    Wall,  ///< Seconds of steady-clock wall time.
};

/** A parsed LRD_DEADLINE specification. */
struct Deadline
{
    DeadlineKind kind = DeadlineKind::None;
    int64_t budget = 0;      ///< Work units (Steps / Items).
    double wallSeconds = 0.0; ///< Limit in seconds (Wall).
};

/** Parse "steps:<n>", "items:<n>", or "wall:<secs>". */
Result<Deadline> parseDeadline(const std::string &text);

/** Arm `deadline` (resets the budget / restarts the wall timer). */
void setDeadline(const Deadline &deadline);

/** Disarm any deadline. */
void clearDeadline();

/** The armed deadline (kind None when disarmed). */
Deadline currentDeadline();

/**
 * Consume up to `n` units ("steps" / "items") from the armed budget
 * at a serial program point; returns how many were admitted. Returns
 * `n` unchanged when no matching budget is armed or when called from
 * inside a parallel region / a pool worker — budget accounting at
 * serial points only is what makes expiry deterministic at any
 * LRD_THREADS. Does NOT request cancellation: when fewer than `n`
 * units come back, finish the admitted prefix and then call
 * expireDeadline().
 */
int64_t consumeWorkBudget(const char *unit, int64_t n);

/** Request Deadline cancellation at `site` (budget ran dry). */
void expireDeadline(const char *site);

/**
 * Poll the wall-clock deadline (no-op unless `wall:` is armed and the
 * caller is at a serial point) and report the token: ok, or the
 * Cancelled / DeadlineExceeded status at `site`. This is the one call
 * pipelines make at their loop boundaries; the numeric core never
 * reads the wall clock.
 */
Status checkCancellation(const char *site);

/** Arm LRD_DEADLINE from the environment (fatal on a bad value). */
void initCancelFromEnv();

} // namespace lrd

#endif // LRD_ROBUST_CANCEL_H
