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
 *
 * Both paths implement backward() so the accuracy-recovery fine-tuning
 * extension (paper Section 6) can train through factorized layers.
 */

#ifndef LRD_MODEL_LINEAR_H
#define LRD_MODEL_LINEAR_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "model/parameter.h"
#include "tensor/simd/pack.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace lrd {

class Counter;
struct SvdResult;
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
     * Forward pass for x of shape (n, in). Caches x for backward()
     * only while a TrainingModeScope is alive. An inference forward
     * keeps nothing and drops a cache a training forward left; on a
     * layer with no such cache, inference forwards may run
     * concurrently.
     */
    Tensor forward(const Tensor &x) const;

    /**
     * Backward pass. Accumulates weight gradients and returns dL/dx.
     * Must be preceded by a training-mode forward() on the same input.
     */
    Tensor backward(const Tensor &dy);

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

    /** Contract the factors back into a dense weight. */
    void densify();

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

    /**
     * Input of the most recent forward() when it ran under a
     * TrainingModeScope (activation calibration holds one); empty
     * after an inference forward.
     */
    const Tensor &lastInput() const { return cachedX_; }

    /** Reset the cached forward input (frees activation memory). */
    void clearCache() const;

    /**
     * Drop the factor panels the fused inference path packs once; the
     * next fused forward packs them again. backward() and every
     * factor-mutating method call it. Whoever writes factor values
     * directly (through parameters()) after a fused forward must call
     * it too, or later fused forwards read the old factors.
     */
    void invalidatePackedWeights();

    /**
     * Process-wide switch for the fused factorized forward (chains
     * U2/core/U1 through register-blocked row panels against
     * pre-packed weights instead of materializing intermediates).
     * On by default; tests and benches flip it in process to compare
     * the two paths. Training-mode forwards and skinny batches (rows
     * < microkernel tile height) always take the unfused path.
     */
    static bool fusedForwardEnabled();
    static void setFusedForwardEnabled(bool enabled);

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

    // Forward caches for backward(), kept by training-mode forwards.
    mutable Tensor cachedX_;
    mutable Tensor cachedT1_; ///< x * U2^T.
    mutable Tensor cachedT2_; ///< t1 * core^T.

    /**
     * Filled in once by the first forward that needs it, behind a
     * pointer so the const forwards of every worker sharing this layer
     * fill one copy: the "model.<name>.macs" counter, and U2^T, core^T
     * and U1^T in microkernel layout for the fused path, packed under
     * packMutex after the factors last changed.
     */
    struct LazyState
    {
        std::atomic<Counter *> macsCounter{nullptr};
        std::mutex packMutex;
        std::atomic<bool> packed{false};
        simd::PackedMat u2t, coret, u1t;
    };
    std::unique_ptr<LazyState> lazy_ = std::make_unique<LazyState>();

    /** Switch to the factorized layout holding d's factors. */
    void installFactors(Tucker2d d);
    /** Pack the factor panels unless they are current. */
    void ensurePackedFactors() const;
};

} // namespace lrd

#endif // LRD_MODEL_LINEAR_H
