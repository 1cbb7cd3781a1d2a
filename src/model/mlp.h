/**
 * @file
 * Feed-forward blocks: SwiGLU (Llama-style, tensors W_G/W_U/W_D) and
 * GELU (BERT-style, tensors W_Int/W_Out), with manual backprop.
 */

#ifndef LRD_MODEL_MLP_H
#define LRD_MODEL_MLP_H

#include <memory>
#include <vector>

#include "model/config.h"
#include "model/linear.h"

namespace lrd {

/** Feed-forward network; the variant is selected by the architecture. */
class Mlp
{
  public:
    /** A null rng builds zero weights with no draws (see Linear). */
    Mlp(const ModelConfig &cfg, int64_t layerIdx, Rng *rng);

    /** x (n, d) -> (n, d). With a tape it records the gate (or
     *  intermediate) pre-activation and the up projection. */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;
    Tensor backward(const Tensor &dy, const Tape &tape,
                    Gradients &grads) const;

    /** Access a decomposable tensor (Gate/Up/Down or Int/Out). */
    Linear &linear(WeightKind kind);

    std::vector<Parameter *> parameters();
    int64_t paramCount() const;

  private:
    Arch arch_;
    // Llama: gate/up/down. BERT: intermediate (wg_) / output (wd_)
    // with wu_ unused.
    std::unique_ptr<Linear> wg_, wu_, wd_;
};

} // namespace lrd

#endif // LRD_MODEL_MLP_H
