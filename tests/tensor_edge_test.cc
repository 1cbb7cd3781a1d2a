/**
 * @file
 * Edge-case and stress tests for the tensor core: scalars, rank-1
 * tensors, high-order unfold/fold/modeProduct, degenerate extents,
 * and numeric boundary behavior.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "robust/recovery.h"
#include "tensor/ops.h"
#include "tensor/unfold.h"
#include "util/rng.h"

namespace lrd {
namespace {

TEST(TensorEdge, ScalarTensorBehaves)
{
    Tensor s;
    EXPECT_EQ(numElements(s.shape()), 1);
    s[0] = 4.0F;
    EXPECT_DOUBLE_EQ(s.sum(), 4.0);
    EXPECT_DOUBLE_EQ(s.norm(), 4.0);
    Tensor r({1, 1}, s.storage());
    EXPECT_FLOAT_EQ(r(0, 0), 4.0F);
}

TEST(TensorEdge, SizeOneExtents)
{
    Tensor t({1, 5, 1});
    t.at({0, 3, 0}) = 2.0F;
    EXPECT_FLOAT_EQ(t.at({0, 3, 0}), 2.0F);
    for (int64_t m = 0; m < 3; ++m) {
        Tensor u = unfold(t, m);
        Tensor back = fold(u, m, t.shape());
        EXPECT_LT(relativeError(t, back), 1e-7) << "mode " << m;
    }
}

TEST(TensorEdge, NegativeExtentRejected)
{
    EXPECT_THROW(numElements({2, -1}), std::runtime_error);
}

TEST(TensorEdge, ZeroExtentTensor)
{
    Tensor t({0, 4});
    EXPECT_EQ(t.size(), 0);
    EXPECT_DOUBLE_EQ(t.sum(), 0.0);
    EXPECT_LT(firstNonFinite(t.data(), t.size()), 0);
}

TEST(TensorEdge, Rank1MatvecAndOps)
{
    Tensor v({4}, {1, 2, 3, 4});
    Tensor m = Tensor::eye(4);
    Tensor y({4}, matmulTransB(Tensor({1, 4}, v.storage()), m).storage());
    EXPECT_LT(relativeError(v, y), 1e-7);
    Tensor ls = logSoftmaxLastDim(v);
    double sum = 0.0;
    for (int64_t i = 0; i < 4; ++i)
        sum += std::exp(ls[i]);
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(TensorEdge, Order5UnfoldRoundTrip)
{
    Rng rng(1);
    Tensor t = Tensor::randn({2, 3, 2, 3, 2}, rng);
    for (int64_t m = 0; m < 5; ++m) {
        Tensor u = unfold(t, m);
        EXPECT_EQ(u.dim(0), t.dim(m));
        EXPECT_EQ(u.size(), t.size());
        EXPECT_LT(relativeError(t, fold(u, m, t.shape())), 1e-7);
    }
}

TEST(TensorEdge, Order5ModeProductChain)
{
    Rng rng(2);
    Tensor t = Tensor::randn({2, 3, 2, 3, 2}, rng);
    Tensor p = t;
    Shape want = t.shape();
    for (int64_t m = 0; m < 5; ++m) {
        Tensor f = Tensor::randn({4, t.dim(m)}, rng);
        p = modeProduct(p, f, m);
        want[static_cast<size_t>(m)] = 4;
        EXPECT_EQ(p.shape(), want);
    }
    EXPECT_LT(firstNonFinite(p.data(), p.size()), 0);
}

TEST(TensorEdge, ReshapeChainPreservesRowMajorOrder)
{
    Tensor t({2, 3, 4});
    for (int64_t i = 0; i < t.size(); ++i)
        t[i] = static_cast<float>(i);
    const Tensor flat({24}, Tensor({4, 6}, t.storage()).storage());
    Tensor r({3, 2, 4}, flat.storage());
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
}

TEST(TensorEdge, SoftmaxSingleColumn)
{
    Tensor t({3, 1}, {5.0F, -2.0F, 0.0F});
    Tensor ls = logSoftmaxLastDim(t);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(ls[i], 0.0F);
}

TEST(TensorEdge, LogSoftmaxExtremeLogits)
{
    Tensor t({1, 3}, {-1e30F, 0.0F, 1e4F});
    Tensor lp = logSoftmaxLastDim(t);
    EXPECT_TRUE(std::isfinite(lp[2]));
    EXPECT_NEAR(lp[2], 0.0F, 1e-3);
    EXPECT_LT(lp[0], lp[1]);
}

TEST(TensorEdge, RelativeErrorInfinityWhenReferenceZero)
{
    Tensor zero({2});
    Tensor nonzero({2}, {1, 0});
    EXPECT_TRUE(std::isinf(relativeError(zero, nonzero)));
}

TEST(TensorEdge, MatmulDegenerateInnerDim)
{
    // (3 x 1) * (1 x 2) outer product.
    Tensor a({3, 1}, {1, 2, 3});
    Tensor b({1, 2}, {4, 5});
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(2, 1), 15.0F);
}

TEST(TensorEdge, FullRankEyeModeProductIdentityOrder4)
{
    Rng rng(3);
    Tensor t = Tensor::randn({3, 4, 2, 5}, rng);
    Tensor p = t;
    for (int64_t m = 0; m < 4; ++m)
        p = modeProduct(p, Tensor::eye(t.dim(m)), m);
    EXPECT_LT(relativeError(t, p), 1e-6);
}

} // namespace
} // namespace lrd
