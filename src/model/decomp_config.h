/**
 * @file
 * The decomposition configuration gamma of Definition 4: the set of
 * decomposed layers (Decomp_Layers), the set of decomposed tensors
 * per layer (Decomp_Tensors), and the pruned ranks PR.
 *
 * Following the paper's Section 3.1, schemes are homogeneous by
 * default (the same tensors and the same pruned rank in every
 * decomposed layer), with an optional per-(layer, tensor) rank map
 * for the general Definition 3 form.
 */

#ifndef LRD_MODEL_DECOMP_CONFIG_H
#define LRD_MODEL_DECOMP_CONFIG_H

#include <map>
#include <string>
#include <vector>

#include "linalg/linalg.h"
#include "model/config.h"
#include "model/transformer.h"

namespace lrd {

class FactorBank;

/** One (layer, tensor, prunedRank) element of PR(m) (Definition 3). */
struct PrunedRankEntry
{
    int layer = 0;
    WeightKind kind = WeightKind::Query;
    int64_t rank = 1;
};

/** A low-rank decomposition configuration gamma (Definition 4). */
struct DecompConfig
{
    /** Decomposed layer indices (0-based), sorted, unique. */
    std::vector<int> layers;
    /** Decomposed tensor kinds within each decomposed layer. */
    std::vector<WeightKind> tensors;
    /** Uniform pruned rank applied to every decomposed tensor. */
    int64_t prunedRank = 1;
    /**
     * Optional overrides for the general (non-homogeneous) form:
     * (layer, kind) -> rank. Entries must still reference decomposed
     * layers/tensors (Proposition 3.1).
     */
    std::map<std::pair<int, int>, int64_t> rankOverrides;

    /** The identity configuration (no decomposition). */
    static DecompConfig identity();

    /** Homogeneous config: all decomposable tensors, given layers. */
    static DecompConfig allTensors(const ModelConfig &cfg,
                                   std::vector<int> layers,
                                   int64_t prunedRank = 1);

    /** Homogeneous config: one tensor kind across given layers. */
    static DecompConfig oneTensor(WeightKind kind, std::vector<int> layers,
                                  int64_t prunedRank = 1);

    bool empty() const { return layers.empty() || tensors.empty(); }

    /** The PR(m) set expanded per Definition 3. */
    std::vector<PrunedRankEntry> prunedRanks() const;

    /** Effective rank for one (layer, kind) pair. */
    int64_t rankFor(int layer, WeightKind kind) const;

    /**
     * Proposition 3.1 validity against a concrete model: layer and
     * tensor indices in range, ranks within [1, rank(l, k)], and
     * rank-override keys covered by the layer/tensor sets.
     * @param why Optional out-parameter describing the violation.
     */
    bool valid(const ModelConfig &cfg, std::string *why = nullptr) const;

    /** Parameters of the decomposed tensors before decomposition. */
    int64_t paramsBefore(const ModelConfig &cfg) const;
    /** Parameters of the decomposed tensors after decomposition. */
    int64_t paramsAfter(const ModelConfig &cfg) const;
    /**
     * Fraction of *total model* parameters removed (the paper's
     * "parameter reduction" x-axis).
     */
    double parameterReduction(const ModelConfig &cfg) const;

    /**
     * Factorize the selected weights of a live model in place: builds
     * a FactorBank of this configuration's weights from `model` and
     * applies it. An invalid configuration is fatal; a tensor whose
     * SVD fails to converge is resolved by the recovery policy — under
     * degrade the tensor stays dense and the first failure's status is
     * returned (the model remains consistent and usable).
     */
    Status applyTo(TransformerModel &model) const;

    /**
     * Install each entry's rank-rankFor(l, k) prefix of the bank's SVD
     * of weight (l, k). The bank must hold every entry and have been
     * built from a dense model with `model`'s weights. A failed bank
     * slot leaves its tensor dense and is reported as in applyTo().
     */
    Status applyTo(TransformerModel &model, const FactorBank &bank) const;

    /** "layers={3,18,32} tensors=all pr=1" style summary. */
    std::string describe() const;
};

/**
 * Decompose once, truncate per configuration: one full SVD per distinct
 * decomposed (layer, tensor) weight of a dense model. A rank-k
 * truncated SVD is the first k triplets of the full one, and svd()
 * never looks at k, so every configuration's slice is bitwise the
 * factorization it would have computed on its own copy of the weight.
 */
class FactorBank
{
  public:
    /**
     * One SVD per distinct (layer, kind) entry across `configs`, read
     * from `dense` and resolved by the recovery policy
     * (decomposeWithPolicy). The SVDs fan out over the pool into fixed
     * slots in ascending (layer, kind) order. A slot the pool's cancel
     * drain skipped reads Cancelled. Invalid configurations are fatal.
     */
    FactorBank(TransformerModel &dense,
               const std::vector<DecompConfig> &configs);

    /** The full SVD of weight (layer, kind); fatal when not banked. */
    const SvdResult &at(int layer, WeightKind kind) const;

  private:
    /** One slot per (layer, kind), layer-major. */
    std::vector<SvdResult> slots_;
    std::vector<uint8_t> banked_; ///< 1 where some config asked for it.
};

} // namespace lrd

#endif // LRD_MODEL_DECOMP_CONFIG_H
