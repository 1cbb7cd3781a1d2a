/**
 * @file
 * Recovery policy for faults surfaced as Status: strict (fail fast:
 * the failure budget is zero, so the first failed item is fatal) or
 * degrade (record the failed item and keep sweeping, bounded by a
 * failure budget). Every pipeline item is deterministic, so a failed
 * item is never re-run: an identical rerun would fail the same way.
 *
 * Selected via LRD_ROBUST:
 *
 *   LRD_ROBUST=strict
 *   LRD_ROBUST=degrade[:<budget-fraction>]      (default, budget 0.1)
 *
 * Also here: the thread-local numeric-fault slot that NaN/Inf layer
 * guards report into. A worker notes the first fault it sees while
 * scoring an item; the same thread takes the note at the item
 * boundary and records it into the item's fixed result slot, so the
 * outcome is identical no matter which pool worker ran the item.
 */

#ifndef LRD_ROBUST_RECOVERY_H
#define LRD_ROBUST_RECOVERY_H

#include <cstdint>
#include <string>

#include "util/status.h"

namespace lrd {

/** How pipelines react to a non-ok Status. */
enum class RobustMode : int
{
    Strict,  ///< fatal() at the detection site; zero failure budget.
    Degrade, ///< Record the failure, continue, enforce the budget.
};

/** Active recovery policy. */
struct RobustPolicy
{
    RobustMode mode = RobustMode::Degrade;
    double failureBudget = 0.10; ///< Max failed fraction (degrade).
};

/** Parse an LRD_ROBUST value. */
Result<RobustPolicy> parseRobustPolicy(const std::string &text);

/**
 * The process policy. First call reads $LRD_ROBUST (fatal on a bad
 * value); later calls return the cached or test-overridden policy.
 */
RobustPolicy robustPolicy();

/** Override the policy (tests; call between parallel regions). */
void setRobustPolicy(const RobustPolicy &policy);

/**
 * Absolute item budget for a sweep of n items: ceil(budget * n) under
 * degrade, 0 under strict.
 */
int64_t failureBudgetItems(const RobustPolicy &policy, int64_t n);

/**
 * Fatal when numFailed exceeds the policy budget for a sweep of
 * `total` items; otherwise logs the degradation summary. No-op when
 * numFailed is 0. `example` is the first failure's Status.
 */
void enforceFailureBudget(const char *site, int64_t numFailed,
                          int64_t total, const Status &example);

/** @name Thread-local numeric-fault slot
 *  @{
 */
/** Note a fault for the current item; first note wins. */
void noteNumericFault(Status status);

/** Take (and clear) the current thread's noted fault; ok when none. */
Status takeNumericFault();
/** @} */

/**
 * Index of the first non-finite value in p[0..n), or -1. The common
 * all-finite case is one vectorizable integer OR of "exponent bits all
 * ones" flags; the element-wise scan for the index runs only when that
 * flag comes back set.
 */
int64_t firstNonFinite(const float *p, int64_t n);

/**
 * Handle a non-finite value detected at `site` (layer `layer`, flat
 * element `index`): strict mode fails fast with the location; degrade
 * notes the fault for the current item and lets the caller drop the
 * item at its boundary.
 */
void reportNonFinite(const char *site, int64_t layer, int64_t index);

} // namespace lrd

#endif // LRD_ROBUST_RECOVERY_H
