#include "serve/load_control.h"

#include "obs/metrics.h"
#include "util/logging.h"

namespace lrd {

namespace {

// Hysteresis thresholds as fractions of queue capacity.
constexpr double kShrinkHigh = 0.50;   // Enter BatchShrink at/above this.
constexpr double kShrinkLow = 0.25;    // Leave BatchShrink below this.
constexpr double kFallbackHigh = 0.80; // Enter RankFallback at/above this.
constexpr double kFallbackLow = 0.50;  // Leave RankFallback below this.
static_assert(kShrinkLow <= kShrinkHigh && kShrinkHigh <= kFallbackHigh
                  && kFallbackLow <= kFallbackHigh,
              "ladder thresholds must be ordered shrinkLow <= shrinkHigh "
              "<= fallbackHigh, fallbackLow <= fallbackHigh");

} // namespace

const char *
serviceLevelName(ServiceLevel level)
{
    switch (level) {
    case ServiceLevel::Normal:
        return "normal";
    case ServiceLevel::BatchShrink:
        return "batch-shrink";
    case ServiceLevel::RankFallback:
        return "rank-fallback";
    }
    return "unknown";
}

ServiceLevel
LoadController::update(int64_t queueDepth, int64_t queueCapacity)
{
    static Counter *transitions =
        MetricsRegistry::instance().counter("serve.degrade.transitions");
    static Gauge *levelGauge =
        MetricsRegistry::instance().gauge("serve.degrade.level");

    const double occupancy = queueCapacity > 0
                                 ? static_cast<double>(queueDepth)
                                       / static_cast<double>(queueCapacity)
                                 : 0.0;
    ServiceLevel next = level_;
    switch (level_) {
    case ServiceLevel::Normal:
        if (occupancy >= kFallbackHigh)
            next = ServiceLevel::RankFallback;
        else if (occupancy >= kShrinkHigh)
            next = ServiceLevel::BatchShrink;
        break;
    case ServiceLevel::BatchShrink:
        if (occupancy >= kFallbackHigh)
            next = ServiceLevel::RankFallback;
        else if (occupancy < kShrinkLow)
            next = ServiceLevel::Normal;
        break;
    case ServiceLevel::RankFallback:
        if (occupancy < kFallbackLow)
            next = occupancy < kShrinkLow ? ServiceLevel::Normal
                                          : ServiceLevel::BatchShrink;
        break;
    }
    if (next != level_) {
        inform(strCat("serve: degradation ladder ",
                      serviceLevelName(level_), " -> ",
                      serviceLevelName(next), " (queue ", queueDepth, "/",
                      queueCapacity, ")"));
        level_ = next;
        transitions->inc();
    }
    levelGauge->set(static_cast<double>(static_cast<int>(level_)));
    return level_;
}

int64_t
LoadController::maxBatch(int64_t configuredMax) const
{
    if (level_ == ServiceLevel::Normal)
        return configuredMax;
    const int64_t shrunk = configuredMax / 2;
    return shrunk > 0 ? shrunk : 1;
}

} // namespace lrd
