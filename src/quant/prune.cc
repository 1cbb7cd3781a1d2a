#include "prune.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace lrd {

Tensor
magnitudePrune(const Tensor &w, double sparsity)
{
    require(w.rank() == 2, "magnitudePrune: weight must be a matrix");
    require(sparsity >= 0.0 && sparsity <= 1.0,
            "magnitudePrune: sparsity must be in [0, 1]");
    Tensor out = w;
    const auto n = static_cast<size_t>(out.size());
    const auto k = static_cast<size_t>(
        std::llround(sparsity * static_cast<double>(n)));
    if (k == 0)
        return out;
    std::vector<float> mags(n);
    for (size_t i = 0; i < n; ++i)
        mags[i] = std::abs(out.data()[i]);
    std::vector<float> sorted = mags;
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     sorted.end());
    const float threshold = sorted[k - 1];
    // Zero everything strictly below the threshold, then zero
    // at-threshold entries until exactly k are pruned (ties).
    size_t pruned = 0;
    for (size_t i = 0; i < n; ++i) {
        if (mags[i] < threshold) {
            out.data()[i] = 0.0F;
            ++pruned;
        }
    }
    for (size_t i = 0; i < n && pruned < k; ++i) {
        if (mags[i] == threshold && out.data()[i] != 0.0F) {
            out.data()[i] = 0.0F;
            ++pruned;
        }
    }
    return out;
}

double
sparsityOf(const Tensor &w) // lrd-lint: allow(dead-symbol) test oracle: Prune.ExactSparsityAchieved
{
    int64_t zeros = 0;
    for (int64_t i = 0; i < w.size(); ++i)
        zeros += w[i] == 0.0F;
    return w.size() == 0
               ? 0.0
               : static_cast<double>(zeros)
                     / static_cast<double>(w.size());
}

void
applyMagnitudePruning(TransformerModel &model, double sparsity)
{
    const ModelConfig &cfg = model.config();
    for (int64_t l = 0; l < cfg.nLayers; ++l) {
        for (WeightKind kind : decomposableKinds(cfg.arch)) {
            Linear &lin = model.linear(l, kind);
            require(!lin.isFactorized(),
                    "applyMagnitudePruning: pruning factorized layers "
                    "is not supported");
            lin.weight().value =
                magnitudePrune(lin.weight().value, sparsity);
        }
    }
}

int64_t
sparseMatrixBytes(int64_t rows, int64_t cols, double sparsity)
{
    const auto nnz = static_cast<int64_t>(
        std::llround((1.0 - sparsity)
                     * static_cast<double>(rows * cols)));
    return nnz * (2 + 2) + (rows + 1) * 4;
}

int64_t
prunedModelBytes(const ModelConfig &cfg, double sparsity,
                 int bytesPerParam)
{
    int64_t total = cfg.totalParams() * bytesPerParam;
    for (int64_t l = 0; l < cfg.nLayers; ++l) {
        for (WeightKind kind : decomposableKinds(cfg.arch)) {
            const auto shape = cfg.weightShape(kind);
            total -= shape[0] * shape[1] * bytesPerParam;
            total += sparseMatrixBytes(shape[0], shape[1], sparsity);
        }
    }
    return total;
}

} // namespace lrd
