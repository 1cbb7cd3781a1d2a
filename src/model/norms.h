/**
 * @file
 * Normalization layers: RMSNorm (Llama-style) and LayerNorm
 * (BERT-style), each with forward and manual backward passes.
 */

#ifndef LRD_MODEL_NORMS_H
#define LRD_MODEL_NORMS_H

#include <string>
#include <vector>

#include "model/parameter.h"
#include "tensor/tensor.h"

namespace lrd {

/** Root-mean-square normalization with learned scale (no bias). */
class RmsNorm
{
  public:
    RmsNorm(int64_t dim, const std::string &name);

    /** x of shape (n, dim) -> same shape. Caches x for backward()
     *  only while a TrainingModeScope is alive. */
    Tensor forward(const Tensor &x) const;
    Tensor backward(const Tensor &dy);

    std::vector<Parameter *> parameters() { return {&w_}; }
    void clearCache();

  private:
    int64_t dim_;
    Parameter w_;
    // Training caches.
    mutable Tensor cachedX_;
    mutable std::vector<float> cachedInvRms_;
    static constexpr float kEps = 1e-5F;
};

/** Standard LayerNorm with learned scale and bias. */
class LayerNorm
{
  public:
    LayerNorm(int64_t dim, const std::string &name);

    /** x of shape (n, dim) -> same shape; caches as RmsNorm does. */
    Tensor forward(const Tensor &x) const;
    Tensor backward(const Tensor &dy);

    std::vector<Parameter *> parameters() { return {&w_, &b_}; }
    void clearCache();

  private:
    int64_t dim_;
    Parameter w_;
    Parameter b_;
    // Training caches.
    mutable Tensor cachedXhat_;
    mutable std::vector<float> cachedInvStd_;
    static constexpr float kEps = 1e-5F;
};

} // namespace lrd

#endif // LRD_MODEL_NORMS_H
