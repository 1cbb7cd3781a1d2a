/**
 * @file
 * Fully-connected layer supporting both dense weights and the paper's
 * three-factor Tucker form.
 *
 * Dense:      y = x W^T (+ b),        W of shape (out, in).
 * Factorized: W approx= U1 * core * U2 with U1 (out, pr),
 *             core (pr, pr), U2 (pr, in); the forward pass chains
 *             three small matmuls, which is exactly how the paper's
 *             decomposed fully-connected layers execute (Section 2.3).
 *             Training and inference forwards run that one chain at
 *             every row count, so they agree bit for bit.
 *
 * Both paths implement backward() so the accuracy-recovery fine-tuning
 * extension (paper Section 6) can train through factorized layers; the
 * layer holds only weights, training state is the caller's Tape and
 * Gradients (model/tape.h).
 */

#ifndef LRD_MODEL_LINEAR_H
#define LRD_MODEL_LINEAR_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "model/parameter.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace lrd {

class Counter;
class Gradients;
struct SvdResult;
class Tape;
struct Tucker2d;

/** Dense-or-factorized linear layer with manual backprop. */
class Linear
{
  public:
    /**
     * @param outDim Output features.
     * @param inDim  Input features.
     * @param hasBias Whether to include a bias vector.
     * @param name   Parameter-name prefix for optimizers/serialization.
     * @param rng    Initialization stream (scaled normal init), or null
     *               for a shape-only layer: zero weights and no draws,
     *               for a deserialized payload to overwrite.
     */
    Linear(int64_t outDim, int64_t inDim, bool hasBias,
           const std::string &name, Rng *rng);

    /**
     * Forward pass for x of shape (n, in). With a tape it records x
     * (first) and, when factorized, the two (n, pr) intermediates for
     * backward(). Without one it allocates only its output, so any
     * number of forwards may share the layer. Nothing is derived from
     * the weights between forwards, so a value written through
     * parameters() reaches the next forward as is.
     */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;

    /**
     * Backward pass through the forward `tape` recorded: accumulates
     * weight gradients into `grads` and returns dL/dx.
     */
    Tensor backward(const Tensor &dy, const Tape &tape,
                    Gradients &grads) const;

    /**
     * Replace the dense weight by its rank-pruned Tucker factors.
     *
     * A non-converged SVD is resolved by the active recovery policy:
     * strict fails fast, and degrade keeps the dense weight and
     * returns the NonConvergence status (the layer stays usable).
     *
     * @param prunedRank Pruned rank in [1, min(out, in)].
     */
    Status factorize(int64_t prunedRank);

    /**
     * Install the rank-pruned factors held in `full`, a full SVD of
     * this layer's dense weight computed once elsewhere (a FactorBank
     * slot, see model/decomp_config.h). The recovery policy was
     * resolved when `full` was computed: a failed status leaves the
     * layer dense and is returned.
     */
    Status factorizeFromSvd(const SvdResult &full, int64_t prunedRank);

    /**
     * Activation-aware factorization (ASVD-style): decompose
     * W * diag(colScale) and fold diag(1/colScale) back into U2, so
     * the truncation error is weighted by how strongly each input
     * feature is actually driven at inference time. Recovery policy
     * as in factorize().
     * @param colScale Positive per-input-feature scales (size in).
     */
    Status factorizeActivationAware(int64_t prunedRank,
                                    const std::vector<float> &colScale);

    /**
     * Switch to factorized layout with zero-initialized factors of
     * the given rank (no SVD); used when deserializing factorized
     * checkpoints whose factor values follow.
     */
    void installFactorShape(int64_t prunedRank);

    bool isFactorized() const { return factorized_; }
    int64_t outDim() const { return outDim_; }
    int64_t inDim() const { return inDim_; }
    int64_t prunedRank() const { return prunedRank_; }

    /** Current parameter count (changes when factorized). */
    int64_t paramCount() const;

    /** Live parameters (dense: W[,b]; factorized: U1, core, U2[,b]). */
    std::vector<Parameter *> parameters();

    /** Dense weight accessor; fatal() when factorized. */
    Parameter &weight();
    const Parameter &weight() const;

    /** Effective dense weight: W, or U1*core*U2 when factorized. */
    Tensor effectiveWeight() const;

  private:
    int64_t outDim_;
    int64_t inDim_;
    bool hasBias_;
    bool factorized_ = false;
    int64_t prunedRank_ = 0;
    std::string name_; ///< Layer name; keys the per-layer MAC counter.

    Parameter w_;    ///< Dense (out, in); empty when factorized.
    Parameter u1_;   ///< (out, pr).
    Parameter core_; ///< (pr, pr).
    Parameter u2_;   ///< (pr, in).
    Parameter b_;    ///< (out), optional.

    /**
     * The "model.<name>.macs" counter, looked up by the first forward
     * that counts. Behind a pointer because an atomic member would make
     * the layer unmovable.
     */
    std::unique_ptr<std::atomic<Counter *>> macsCounter_ =
        std::make_unique<std::atomic<Counter *>>(nullptr);

    /** Switch to the factorized layout holding d's factors. */
    void installFactors(Tucker2d d);
};

} // namespace lrd

#endif // LRD_MODEL_LINEAR_H
