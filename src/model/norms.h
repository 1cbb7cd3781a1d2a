/**
 * @file
 * Normalization layers: RMSNorm (Llama-style) and LayerNorm
 * (BERT-style), each with forward and manual backward passes. A taped
 * forward records what backward() reads into the caller's Tape.
 */

#ifndef LRD_MODEL_NORMS_H
#define LRD_MODEL_NORMS_H

#include <string>
#include <vector>

#include "model/parameter.h"
#include "tensor/tensor.h"

namespace lrd {

class Gradients;
class Tape;

/** Root-mean-square normalization with learned scale (no bias). */
class RmsNorm
{
  public:
    RmsNorm(int64_t dim, const std::string &name);

    /** x of shape (n, dim) -> same shape. With a tape it records x
     *  and each row's 1/rms for backward(). */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;
    Tensor backward(const Tensor &dy, const Tape &tape,
                    Gradients &grads) const;

    std::vector<Parameter *> parameters() { return {&w_}; }

  private:
    int64_t dim_;
    Parameter w_;
    static constexpr float kEps = 1e-5F;
};

/** Standard LayerNorm with learned scale and bias. */
class LayerNorm
{
  public:
    LayerNorm(int64_t dim, const std::string &name);

    /** x of shape (n, dim) -> same shape. With a tape it records the
     *  normalized x and each row's 1/std for backward(). */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;
    Tensor backward(const Tensor &dy, const Tape &tape,
                    Gradients &grads) const;

    std::vector<Parameter *> parameters() { return {&w_, &b_}; }

  private:
    int64_t dim_;
    Parameter w_;
    Parameter b_;
    static constexpr float kEps = 1e-5F;
};

} // namespace lrd

#endif // LRD_MODEL_NORMS_H
