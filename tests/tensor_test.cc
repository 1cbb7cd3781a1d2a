/**
 * @file
 * Unit and property tests for the Tensor container and elementwise /
 * matrix operations.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "robust/recovery.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace lrd {
namespace {

TEST(Tensor, DefaultIsScalarZero)
{
    Tensor t;
    EXPECT_EQ(t.rank(), 0);
    EXPECT_EQ(t.size(), 1);
    EXPECT_FLOAT_EQ(t[0], 0.0F);
}

TEST(Tensor, ZerosShapeAndContents)
{
    Tensor t = Tensor::zeros({2, 3, 4});
    EXPECT_EQ(t.rank(), 3);
    EXPECT_EQ(t.size(), 24);
    for (int64_t i = 0; i < t.size(); ++i)
        EXPECT_FLOAT_EQ(t[i], 0.0F);
}

TEST(Tensor, FullAndOnes)
{
    EXPECT_FLOAT_EQ(Tensor::ones({3})[2], 1.0F);
    EXPECT_FLOAT_EQ(Tensor::full({2, 2}, -2.5F)[3], -2.5F);
}

TEST(Tensor, EyeIsIdentity)
{
    Tensor i = Tensor::eye(3);
    for (int64_t r = 0; r < 3; ++r)
        for (int64_t c = 0; c < 3; ++c)
            EXPECT_FLOAT_EQ(i(r, c), r == c ? 1.0F : 0.0F);
}

TEST(Tensor, ConstructorRejectsMismatchedData)
{
    EXPECT_THROW(Tensor({2, 2}, {1.0F, 2.0F}), std::runtime_error);
}

TEST(Tensor, RowMajorIndexing)
{
    Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
    EXPECT_FLOAT_EQ(t(0, 0), 0.0F);
    EXPECT_FLOAT_EQ(t(0, 2), 2.0F);
    EXPECT_FLOAT_EQ(t(1, 0), 3.0F);
    EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0F);
}

TEST(Tensor, AtBoundsChecked)
{
    Tensor t({2, 2});
    EXPECT_THROW(t.at({2, 0}), std::runtime_error);
    EXPECT_THROW(t.at({0}), std::runtime_error);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
    Tensor r({3, 2}, t.storage());
    EXPECT_FLOAT_EQ(r(2, 1), 5.0F);
    EXPECT_THROW(Tensor({4, 2}, t.storage()), std::runtime_error);
}

TEST(Tensor, SumNormMinMax)
{
    Tensor t({2, 2}, {1, -2, 3, -4});
    EXPECT_DOUBLE_EQ(t.sum(), -2.0);
    EXPECT_NEAR(t.norm(), std::sqrt(30.0), 1e-6);
}

TEST(Tensor, AllFiniteDetectsNanInf)
{
    Tensor t({2});
    EXPECT_LT(firstNonFinite(t.data(), t.size()), 0);
    t[1] = std::nanf("");
    EXPECT_EQ(firstNonFinite(t.data(), t.size()), 1);
    t[0] = INFINITY;
    EXPECT_EQ(firstNonFinite(t.data(), t.size()), 0);
}

TEST(Tensor, RandnStatistics)
{
    Rng rng(5);
    Tensor t = Tensor::randn({100, 100}, rng, 2.0F);
    double mean = t.sum() / t.size();
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(t.norm() / std::sqrt(static_cast<double>(t.size())), 2.0,
                0.05);
}

TEST(Ops, AddSubHadamardScale)
{
    Tensor a({2}, {1, 2});
    Tensor b({2}, {3, 5});
    EXPECT_FLOAT_EQ(add(a, b)[1], 7.0F);
    EXPECT_FLOAT_EQ(hadamard(a, b)[1], 10.0F);
    EXPECT_FLOAT_EQ(scale(a, -2.0F)[0], -2.0F);
}

TEST(Ops, ShapeMismatchThrows)
{
    Tensor a({2});
    Tensor b({3});
    EXPECT_THROW(add(a, b), std::runtime_error);
    EXPECT_THROW(hadamard(a, b), std::runtime_error);
}

TEST(Ops, AxpyAccumulates)
{
    Tensor a({2}, {1, 1});
    Tensor b({2}, {2, 4});
    axpy(a, 0.5F, b);
    EXPECT_FLOAT_EQ(a[0], 2.0F);
    EXPECT_FLOAT_EQ(a[1], 3.0F);
}

TEST(Ops, MatmulKnownResult)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
    Tensor c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0F);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0F);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0F);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0F);
}

TEST(Ops, MatmulDimensionMismatchThrows)
{
    Tensor a({2, 3});
    Tensor b({2, 2});
    EXPECT_THROW(matmul(a, b), std::runtime_error);
}

TEST(Ops, TransposedVariantsAgreeWithExplicitTranspose)
{
    Rng rng(9);
    Tensor a = Tensor::randn({4, 6}, rng);
    Tensor b = Tensor::randn({5, 6}, rng);
    Tensor viaTrans = matmul(a, transpose2d(b));
    Tensor direct = matmulTransB(a, b);
    EXPECT_LT(relativeError(viaTrans, direct), 1e-6);

    Tensor c = Tensor::randn({4, 5}, rng);
    Tensor viaTransA = matmul(transpose2d(a), c);
    Tensor directA = matmulTransA(a, c);
    EXPECT_LT(relativeError(viaTransA, directA), 1e-6);
}

TEST(Ops, MatvecMatchesMatmul)
{
    // A x as the one-row product x^T A^T, the skinny transposed-B path.
    Rng rng(10);
    Tensor a = Tensor::randn({3, 4}, rng);
    Tensor x = Tensor::randn({4}, rng);
    Tensor y = matmulTransB(Tensor({1, 4}, x.storage()), a);
    Tensor viaMm = matmul(a, Tensor({4, 1}, x.storage()));
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(y(0, i), viaMm(i, 0), 1e-5);
}

TEST(Ops, TransposeIsInvolution)
{
    Rng rng(11);
    Tensor a = Tensor::randn({3, 7}, rng);
    EXPECT_LT(relativeError(a, transpose2d(transpose2d(a))), 1e-7);
}

TEST(Ops, ReluGeluSiluPointwiseValues)
{
    Tensor x({3}, {-1.0F, 0.0F, 2.0F});
    Tensor g = gelu(x);
    EXPECT_NEAR(g[0], -0.1588F, 1e-3); // known GELU(-1)
    EXPECT_FLOAT_EQ(g[1], 0.0F);
    EXPECT_NEAR(g[2], 1.9546F, 1e-3); // known GELU(2)

    Tensor s = silu(x);
    EXPECT_NEAR(s[0], -0.2689F, 1e-3); // -1*sigmoid(-1)
    EXPECT_FLOAT_EQ(s[1], 0.0F);
    EXPECT_NEAR(s[2], 1.7616F, 1e-3);
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(12);
    Tensor x = Tensor::randn({5, 8}, rng, 3.0F);
    Tensor ls = logSoftmaxLastDim(x);
    for (int64_t r = 0; r < 5; ++r) {
        double s = 0.0;
        for (int64_t c = 0; c < 8; ++c) {
            EXPECT_LT(ls(r, c), 0.0F);
            s += std::exp(ls(r, c));
        }
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxStableUnderLargeInputs)
{
    Tensor x({1, 3}, {1000.0F, 1000.0F, 1000.0F});
    Tensor ls = logSoftmaxLastDim(x);
    for (int64_t c = 0; c < 3; ++c)
        EXPECT_NEAR(std::exp(ls(0, c)), 1.0 / 3.0, 1e-5);
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax)
{
    Rng rng(13);
    Tensor x = Tensor::randn({4, 6}, rng, 2.0F);
    Tensor ls = logSoftmaxLastDim(x);
    // log softmax(x) = x - logsumexp(x): a per-row shift whose
    // exponentials sum to one.
    for (int64_t r = 0; r < 4; ++r) {
        double s = 0.0;
        for (int64_t c = 0; c < 6; ++c) {
            EXPECT_NEAR(ls(r, c) - x(r, c), ls(r, 0) - x(r, 0), 1e-5);
            s += std::exp(ls(r, c));
        }
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Ops, RelativeErrorProperties)
{
    Tensor a({2}, {3, 4});
    EXPECT_DOUBLE_EQ(relativeError(a, a), 0.0);
    Tensor z({2});
    EXPECT_DOUBLE_EQ(relativeError(z, z), 0.0);
    Tensor b({2}, {0, 0});
    EXPECT_DOUBLE_EQ(relativeError(a, b), 1.0);
}

TEST(Ops, DotMatchesManual)
{
    Tensor a({3}, {1, 2, 3});
    Tensor b({3}, {4, 5, 6});
    EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

/** Property sweep: (A*B)*C == A*(B*C) across random shapes. */
class MatmulAssociativity : public ::testing::TestWithParam<int> {};

TEST_P(MatmulAssociativity, HoldsNumerically)
{
    Rng rng(static_cast<uint64_t>(GetParam()));
    const int64_t m = 2 + static_cast<int64_t>(rng.uniformInt(6));
    const int64_t k = 2 + static_cast<int64_t>(rng.uniformInt(6));
    const int64_t n = 2 + static_cast<int64_t>(rng.uniformInt(6));
    const int64_t p = 2 + static_cast<int64_t>(rng.uniformInt(6));
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor c = Tensor::randn({n, p}, rng);
    EXPECT_LT(relativeError(matmul(matmul(a, b), c),
                            matmul(a, matmul(b, c))),
              1e-4);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatmulAssociativity,
                         ::testing::Range(0, 10));

} // namespace
} // namespace lrd
