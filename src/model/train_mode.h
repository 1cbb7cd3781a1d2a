/**
 * @file
 * Process-wide training-mode flag.
 *
 * Layers consult trainingModeActive() to decide whether a backward
 * pass may follow a forward. Only then does a layer cache what its
 * backward() reads; outside a scope forwards write no layer state (so
 * workers share one model) and compute the same bits as inside one.
 * Training entry points (TransformerModel::lossAndGrad) hold a
 * TrainingModeScope for the duration of the forward+backward pair,
 * and so does anything else that reads a forward's cached input
 * (calibrateActivationScales via Linear::lastInput()).
 */

#ifndef LRD_MODEL_TRAIN_MODE_H
#define LRD_MODEL_TRAIN_MODE_H

namespace lrd {

/** True while at least one TrainingModeScope is alive. */
bool trainingModeActive();

/** RAII marker for a forward pass that will be followed by backward().
 *  Nestable; the flag clears when the outermost scope exits. */
class TrainingModeScope
{
  public:
    TrainingModeScope();
    ~TrainingModeScope();
    TrainingModeScope(const TrainingModeScope &) = delete;
    TrainingModeScope &operator=(const TrainingModeScope &) = delete;
};

} // namespace lrd

#endif // LRD_MODEL_TRAIN_MODE_H
