/**
 * @file
 * The graceful-degradation ladder: a load controller that watches
 * queue occupancy at tick boundaries and steps the server through
 *
 *   Normal -> BatchShrink -> RankFallback
 *
 * before admission control sheds anything. BatchShrink halves the
 * batch ceiling so per-tick latency stays bounded; RankFallback
 * additionally routes scoring to a lower-rank variant of the model
 * (a DecompConfig-factorized copy — the paper's accuracy/efficiency
 * trade-off applied as an overload valve). Transitions use
 * hysteresis with fixed thresholds (enter BatchShrink at 50% queue
 * occupancy and leave it below 25%; enter RankFallback at 80% and
 * leave it below 50%) so occupancy noise near a threshold cannot flap
 * the ladder, and every transition is logged and counted
 * (serve.degrade.transitions, serve.degrade.level).
 */

#ifndef LRD_SERVE_LOAD_CONTROL_H
#define LRD_SERVE_LOAD_CONTROL_H

#include <cstdint>

namespace lrd {

/** Rung of the degradation ladder (ordered by severity). */
enum class ServiceLevel : int
{
    Normal = 0,
    BatchShrink = 1,
    RankFallback = 2,
};

/** Stable lowercase name for a level ("batch-shrink", ...). */
const char *serviceLevelName(ServiceLevel level);

class LoadController
{
  public:
    /**
     * Re-evaluate the ladder for this tick's queue occupancy.
     * Called once per tick from the control thread (a serial point),
     * so the level sequence is a pure function of the occupancy
     * sequence. Returns the (possibly unchanged) level.
     */
    ServiceLevel update(int64_t queueDepth, int64_t queueCapacity);

    ServiceLevel level() const { return level_; }

    /** Batch ceiling at the current level (halved under shrink). */
    int64_t maxBatch(int64_t configuredMax) const;

    /** Whether scoring should use the lower-rank fallback model. */
    bool
    useFallbackModel() const
    {
        return level_ == ServiceLevel::RankFallback;
    }

  private:
    ServiceLevel level_ = ServiceLevel::Normal;
};

} // namespace lrd

#endif // LRD_SERVE_LOAD_CONTROL_H
