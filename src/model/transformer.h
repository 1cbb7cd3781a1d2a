/**
 * @file
 * The full transformer: embedding, a stack of blocks, final norm and
 * LM head. Provides training (forward + cross-entropy + backward),
 * full-sequence inference, KV-cache incremental inference (one layer
 * walk serves both), Tucker decomposition of any (layer, tensor) pair,
 * and serialization. The model holds its weights only: training keeps
 * activations and gradients in a caller-owned Tape and Gradients
 * (model/tape.h).
 */

#ifndef LRD_MODEL_TRANSFORMER_H
#define LRD_MODEL_TRANSFORMER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/attention.h"
#include "model/config.h"
#include "model/embedding.h"
#include "model/mlp.h"
#include "model/norms.h"
#include "model/tape.h"

namespace lrd {

/**
 * One encoder/decoder layer. LlamaStyle uses pre-RMSNorm residual
 * blocks; BertStyle uses post-LayerNorm residual blocks.
 */
class TransformerBlock
{
  public:
    /** A null rng builds zero weights with no draws (see Linear). */
    TransformerBlock(const ModelConfig &cfg, int64_t layerIdx, Rng *rng);

    /** With a cache (LlamaStyle, untaped) the attention appends x's
     *  rows to it; see MultiHeadAttention::forward. */
    Tensor forward(const Tensor &x, Tape *tape = nullptr,
                   KvCache *cache = nullptr) const;
    Tensor backward(const Tensor &dy, const Tape &tape,
                    Gradients &grads) const;

    /** Access any decomposable tensor of this layer by kind. */
    Linear &linear(WeightKind kind);

    std::vector<Parameter *> parameters();
    int64_t paramCount() const;

  private:
    Arch arch_;
    std::unique_ptr<RmsNorm> rms1_, rms2_;
    std::unique_ptr<LayerNorm> ln1_, ln2_;
    std::unique_ptr<MultiHeadAttention> attn_;
    std::unique_ptr<Mlp> mlp_;
};

/** A complete decoder-only (Llama-style) or encoder-only (BERT-style)
 *  transformer language model. */
class TransformerModel
{
  public:
    explicit TransformerModel(const ModelConfig &cfg, uint64_t seed = 1234);

    const ModelConfig &config() const { return cfg_; }

    /** Full-sequence forward; returns logits (T, vocab). With a tape
     *  every layer records what its backward reads. */
    Tensor forward(const TokenSeq &tokens, Tape *tape = nullptr) const;

    /**
     * Taped forward + mean cross-entropy over positions with target
     * >= 0 + full backward; the gradients accumulate into `grads`
     * (built from this model's parameters()).
     *
     * For causal LM training pass targets[i] = tokens[i + 1]; for MLM
     * pass the original token at masked positions and -1 elsewhere.
     * @return Mean loss over supervised positions.
     */
    double lossAndGrad(const TokenSeq &tokens,
                       const std::vector<int> &targets,
                       Gradients &grads) const;

    /** Forward-only mean cross-entropy (no gradients). */
    double loss(const TokenSeq &tokens,
                const std::vector<int> &targets) const;

    /** All trainable parameters (changes after factorization). */
    std::vector<Parameter *> parameters();

    /** Access a decomposable weight tensor. */
    Linear &linear(int64_t layer, WeightKind kind);

    /** Live parameter count (drops after decomposition). */
    int64_t paramCount() const;

    int64_t numLayers() const
    {
        return static_cast<int64_t>(blocks_.size());
    }
    TransformerBlock &block(int64_t i) { return *blocks_[static_cast<size_t>(i)]; }

    /**
     * Serialize weights (v3 format). Factorized layers are stored as
     * their Tucker factors plus a manifest, so compressed checkpoints
     * round-trip at their compressed size.
     */
    std::vector<uint8_t> serialize() const;
    /** Restore a model saved by serialize() (v3 only). Takes the
     *  bytes by value: pass an rvalue and nothing is copied. */
    static TransformerModel deserialize(std::vector<uint8_t> bytes);

  private:
    friend class InferenceSession;

    /** Draws the initial weights from `init`; without one, builds
     *  every tensor zeroed and draws nothing (deserialize()). */
    TransformerModel(const ModelConfig &cfg, std::optional<Rng> init);

    /**
     * The layer walk forward() and InferenceSession::append() share:
     * embed `tokens` from position `caches[0].len` (0 without caches),
     * run each block, on its own layer's cache when `caches` holds one
     * per layer, then the final norm and lm_head. Returns the logits
     * (tokens, vocab).
     */
    Tensor walk(const TokenSeq &tokens, Tape *tape, KvCache *caches) const;

    ModelConfig cfg_;
    std::unique_ptr<Embedding> embedding_;
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<RmsNorm> finalNorm_;
    std::unique_ptr<Linear> lmHead_;
};

/**
 * KV-cache incremental decoding session over a LlamaStyle model.
 * Construction allocates nothing: each layer's cache storage grows
 * with the rows appended, up to the model's maxSeq, which append()
 * enforces. truncate() rewinds it to a shorter prefix, which the
 * evaluator uses to score every choice of an item against one shared
 * context; copies are deep (they duplicate the stored rows) and
 * diverge independently.
 */
class InferenceSession
{
  public:
    /** `model` is borrowed; sessions on other threads may share it. */
    explicit InferenceSession(const TransformerModel &model);

    /**
     * Feed tokens and return the logits row of the last fed token
     * (shape (vocab)).
     */
    Tensor append(const TokenSeq &tokens);

    /**
     * Sum of log-probabilities of a non-empty `continuation` after the
     * tokens fed so far, given `lastLogProbs`, the log-softmax of the
     * last fed token's logits. Feeds every continuation token but the
     * last; truncate() rewinds them.
     */
    double scoreContinuation(const Tensor &lastLogProbs,
                             const TokenSeq &continuation);

    /** Number of tokens consumed so far. */
    int64_t length() const { return caches_.empty() ? 0 : caches_[0].len; }

    /**
     * Rewind to the first `n` tokens (0 <= n <= length()), keeping the
     * storage; truncate(0) restarts the session. Cached attention reads
     * only rows below the cache length and the next append overwrites
     * rows from `n` on, so the session then computes bitwise what a
     * copy taken at length `n` would.
     */
    void truncate(int64_t n);

  private:
    const TransformerModel *model_;
    std::vector<KvCache> caches_;
};

/** Sum of log-probabilities of `continuation` given `context`. */
double scoreContinuation(const TransformerModel &model,
                         const TokenSeq &context,
                         const TokenSeq &continuation);

/**
 * Greedy decoding: feed `prompt`, then repeatedly append the argmax
 * token until `maxNew` tokens are emitted or `stopToken` appears
 * (the stop token is not included in the result).
 */
TokenSeq greedyGenerate(const TransformerModel &model,
                        const TokenSeq &prompt, int maxNew, int stopToken);

} // namespace lrd

#endif // LRD_MODEL_TRANSFORMER_H
