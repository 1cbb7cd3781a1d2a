/**
 * @file
 * Tests for the quantization and magnitude-pruning baselines.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "quant/prune.h"
#include "quant/quantize.h"
#include "robust/recovery.h"
#include "tensor/ops.h"

namespace lrd {
namespace {

TEST(Quantize, RoundTripErrorShrinksWithBits)
{
    Rng rng(1);
    Tensor w = Tensor::randn({32, 48}, rng);
    double prev = 1e9;
    for (int bits : {2, 3, 4, 6, 8}) {
        const double err = relativeError(w, fakeQuantize(w, bits));
        EXPECT_LT(err, prev) << bits << " bits";
        prev = err;
    }
    EXPECT_LT(prev, 0.01); // 8-bit is near-lossless
}

TEST(Quantize, CodesRespectBitRange)
{
    Rng rng(2);
    Tensor w = Tensor::randn({8, 16}, rng, 3.0F);
    for (int bits : {2, 4, 8}) {
        const QuantizedTensor q = quantizeWeight(w, bits);
        const int32_t qmax = (1 << (bits - 1)) - 1;
        for (int32_t code : q.q) {
            EXPECT_LE(code, qmax);
            EXPECT_GE(code, -qmax - 1);
        }
    }
}

TEST(Quantize, ZeroRowIsStable)
{
    Tensor w({2, 4});
    w(1, 0) = 1.0F;
    const Tensor back = fakeQuantize(w, 4);
    EXPECT_FLOAT_EQ(back(0, 0), 0.0F);
    EXPECT_NEAR(back(1, 0), 1.0F, 0.2F);
}

TEST(Quantize, InvalidBitsAreFatal)
{
    Tensor w({2, 2});
    EXPECT_THROW(quantizeWeight(w, 1), std::runtime_error);
    EXPECT_THROW(quantizeWeight(w, 9), std::runtime_error);
}

TEST(Quantize, StorageBytesFormula)
{
    QuantizedTensor q;
    q.bits = 4;
    q.rows = 8;
    q.cols = 16;
    // 8*16*4 bits = 64 bytes + 8 rows * 2B scales.
    EXPECT_EQ(q.storageBytes(), 64 + 16);
}

TEST(Quantize, ModelBytesDecreaseWithBits)
{
    const ModelConfig cfg = llama2_7bConfig();
    const int64_t fp16 = cfg.totalParams() * 2;
    const int64_t int8 = quantizedModelBytes(cfg, 8);
    const int64_t int4 = quantizedModelBytes(cfg, 4);
    EXPECT_LT(int8, fp16);
    EXPECT_LT(int4, int8);
    // Decomposable tensors are ~96% of Llama params: int4 should be
    // a bit over a quarter of FP16.
    EXPECT_NEAR(static_cast<double>(int4) / fp16, 0.28, 0.04);
}

TEST(Quantize, ApplyToModelKeepsItFunctional)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 5);
    TokenSeq toks = {1, 2, 3, 4};
    Tensor before = m.forward(toks);
    applyFakeQuantization(m, 8);
    Tensor after = m.forward(toks);
    EXPECT_LT(firstNonFinite(after.data(), after.size()), 0);
    // 8-bit is near-lossless on logits.
    EXPECT_LT(relativeError(before, after), 0.15);
}

TEST(Quantize, FactorizedLayerRejected)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 5);
    ASSERT_TRUE(m.linear(0, WeightKind::Query).factorize(1).ok());
    EXPECT_THROW(applyFakeQuantization(m, 8), std::runtime_error);
}

TEST(Prune, ExactSparsityAchieved)
{
    Rng rng(3);
    Tensor w = Tensor::randn({20, 30}, rng);
    for (double s : {0.0, 0.25, 0.5, 0.9}) {
        const Tensor p = magnitudePrune(w, s);
        EXPECT_NEAR(sparsityOf(p), s, 1.0 / w.size()) << s;
    }
    EXPECT_THROW(magnitudePrune(w, 1.5), std::runtime_error);
}

TEST(Prune, KeepsLargestMagnitudes)
{
    Tensor w({1, 4}, {0.1F, -5.0F, 0.2F, 3.0F});
    const Tensor p = magnitudePrune(w, 0.5);
    EXPECT_FLOAT_EQ(p[0], 0.0F);
    EXPECT_FLOAT_EQ(p[1], -5.0F);
    EXPECT_FLOAT_EQ(p[2], 0.0F);
    EXPECT_FLOAT_EQ(p[3], 3.0F);
}

TEST(Prune, PruningErrorGrowsWithSparsity)
{
    Rng rng(4);
    Tensor w = Tensor::randn({16, 16}, rng);
    double prev = -1.0;
    for (double s : {0.1, 0.3, 0.6, 0.9}) {
        const double err = relativeError(w, magnitudePrune(w, s));
        EXPECT_GT(err, prev);
        prev = err;
    }
}

TEST(Prune, SparseBytesMonotoneInSparsity)
{
    const int64_t dense = sparseMatrixBytes(64, 64, 0.0);
    const int64_t half = sparseMatrixBytes(64, 64, 0.5);
    const int64_t most = sparseMatrixBytes(64, 64, 0.95);
    EXPECT_GT(dense, half);
    EXPECT_GT(half, most);
    const ModelConfig cfg = llama2_7bConfig();
    EXPECT_LT(prunedModelBytes(cfg, 0.8),
              prunedModelBytes(cfg, 0.5));
}

TEST(Prune, ModelStaysFunctionalAndDegradesGracefully)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 6);
    TokenSeq toks = {1, 2, 3, 4};
    Tensor before = m.forward(toks);
    applyMagnitudePruning(m, 0.2);
    Tensor after = m.forward(toks);
    EXPECT_LT(firstNonFinite(after.data(), after.size()), 0);
    const double err20 = relativeError(before, after);
    applyMagnitudePruning(m, 0.8);
    const double err80 = relativeError(before, m.forward(toks));
    EXPECT_GT(err80, err20);
}

} // namespace
} // namespace lrd
