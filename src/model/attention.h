/**
 * @file
 * Multi-head self-attention with optional causal masking and rotary
 * position embeddings. One forward serves training, full-sequence
 * scoring and KV-cached prefill and decode.
 *
 * The four projection weights (W_Q, W_K, W_V, W_SO) are the
 * attention-side decomposable tensors of the paper's Figure 4; each is
 * a Linear that can be swapped to its Tucker-factorized form.
 */

#ifndef LRD_MODEL_ATTENTION_H
#define LRD_MODEL_ATTENTION_H

#include <memory>
#include <vector>

#include "model/config.h"
#include "model/linear.h"
#include "model/rope.h"

namespace lrd {

/**
 * Per-layer key/value cache for incremental decoding. It stores only
 * the rows appended so far, kvDim floats each: a cached
 * MultiHeadAttention::forward() grows the storage, and rewinding `len`
 * keeps it for the next append. InferenceSession bounds the length by
 * the model's maxSeq.
 */
struct KvCache
{
    std::vector<float> k; ///< Cached post-RoPE keys, row-major.
    std::vector<float> v; ///< Cached values, row-major.
    int64_t len = 0;      ///< Number of valid cached positions.
};

/** Multi-head self-attention block. */
class MultiHeadAttention
{
  public:
    /** A null rng builds zero weights with no draws (see Linear). */
    MultiHeadAttention(const ModelConfig &cfg, int64_t layerIdx, Rng *rng);

    /**
     * x (n, d) -> (n, d). Without a cache the rows attend over
     * themselves from position 0; with a tape the forward records the
     * post-RoPE q, k, v and the softmax rows for backward(). With a
     * cache (causal and untaped only) the rows are appended at
     * positions cache->len.. and attend over every cached row; the
     * cache's storage grows when it holds fewer rows.
     */
    Tensor forward(const Tensor &x, Tape *tape = nullptr,
                   KvCache *cache = nullptr) const;

    /** Backward through the forward `tape` recorded; returns dL/dx. */
    Tensor backward(const Tensor &dy, const Tape &tape,
                    Gradients &grads) const;

    /** Access one of the four projection Linears by kind. */
    Linear &linear(WeightKind kind);

    std::vector<Parameter *> parameters();
    int64_t paramCount() const;

  private:
    int64_t dModel_;
    int64_t nHeads_;
    int64_t kvHeads_;  ///< < nHeads_ under grouped-query attention.
    int64_t kvDim_;    ///< kvHeads_ * headDim_.
    int64_t headDim_;
    bool causal_;
    const RopeTable *rope_ = nullptr; ///< Shared; null without RoPE.

    std::unique_ptr<Linear> wq_, wk_, wv_, wso_;
};

} // namespace lrd

#endif // LRD_MODEL_ATTENTION_H
