/**
 * @file
 * AdamW optimizer with global-norm gradient clipping and a
 * warmup + cosine learning-rate schedule.
 */

#ifndef LRD_TRAIN_ADAM_H
#define LRD_TRAIN_ADAM_H

#include <vector>

#include "model/parameter.h"
#include "model/tape.h"
#include "util/cache.h"
#include "util/status.h"

namespace lrd {

/** AdamW hyperparameters. */
struct AdamOptions
{
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.95;
    double eps = 1e-8;
    double weightDecay = 0.01;
    double clipNorm = 1.0; ///< Global gradient-norm clip (0 disables).
};

/** AdamW over an externally-owned parameter list. */
class AdamW
{
  public:
    AdamW(std::vector<Parameter *> params, AdamOptions opts = {});

    /**
     * Apply one update from `grads`, built over the same parameter
     * list in the same order.
     * @param lrScale Multiplier on the base learning rate (schedule).
     */
    void step(const Gradients &grads, double lrScale = 1.0);

    /** Append the moment estimates and step count to a checkpoint. */
    void serializeState(ByteWriter &w) const;

    /**
     * Restore state written by serializeState. InvalidArgument when
     * the checkpoint was taken with a different parameter list.
     */
    Status restoreState(ByteReader &r);

  private:
    std::vector<Parameter *> params_;
    AdamOptions opts_;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
    int64_t t_ = 0;
};

/** Warmup + cosine decay multiplier in [minScale, 1]. */
double cosineSchedule(int64_t step, int64_t warmupSteps, int64_t totalSteps,
                      double minScale = 0.1);

} // namespace lrd

#endif // LRD_TRAIN_ADAM_H
