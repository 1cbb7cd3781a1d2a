/**
 * @file
 * Tests for QR, symmetric eigendecomposition, SVD (full, truncated,
 * randomized), including Eckart-Young optimality properties.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/linalg.h"
#include "robust/fault.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace lrd {
namespace {

TEST(Qr, ReconstructsInput)
{
    Rng rng(1);
    for (auto [m, n] : {std::pair<int64_t, int64_t>{6, 4}, {4, 6}, {5, 5}}) {
        Tensor a = Tensor::randn({m, n}, rng);
        QrResult qr = qrDecompose(a);
        EXPECT_LT(relativeError(a, matmul(qr.q, qr.r)), 1e-5);
        EXPECT_LT(orthonormalityError(qr.q), 1e-5);
    }
}

TEST(Qr, RIsUpperTriangular)
{
    Rng rng(2);
    Tensor a = Tensor::randn({5, 5}, rng);
    QrResult qr = qrDecompose(a);
    for (int64_t i = 1; i < 5; ++i)
        for (int64_t j = 0; j < i; ++j)
            EXPECT_FLOAT_EQ(qr.r(i, j), 0.0F);
}

TEST(Qr, HandlesRankDeficientInput)
{
    // Two identical columns: still must satisfy A = Q R.
    Tensor a({3, 2}, {1, 1, 2, 2, 3, 3});
    QrResult qr = qrDecompose(a);
    EXPECT_LT(relativeError(a, matmul(qr.q, qr.r)), 1e-5);
}

TEST(Qr, ZeroMatrix)
{
    Tensor a({3, 2});
    QrResult qr = qrDecompose(a);
    EXPECT_LT(matmul(qr.q, qr.r).norm(), 1e-6);
}

TEST(Eigen, DiagonalMatrix)
{
    Tensor d({3, 3});
    d(0, 0) = 1.0F;
    d(1, 1) = 5.0F;
    d(2, 2) = 3.0F;
    EigenResult e = symmetricEigen(d);
    EXPECT_NEAR(e.values[0], 5.0, 1e-8);
    EXPECT_NEAR(e.values[1], 3.0, 1e-8);
    EXPECT_NEAR(e.values[2], 1.0, 1e-8);
}

TEST(Eigen, ReconstructsSymmetricMatrix)
{
    Rng rng(3);
    Tensor g = Tensor::randn({6, 6}, rng);
    Tensor s = add(g, transpose2d(g)); // symmetric
    EigenResult e = symmetricEigen(s);
    // Rebuild V diag(w) V^T.
    Tensor vw = e.vectors;
    for (int64_t i = 0; i < 6; ++i)
        for (int64_t j = 0; j < 6; ++j)
            vw(i, j) *= static_cast<float>(e.values[static_cast<size_t>(j)]);
    Tensor rec = matmulTransB(vw, e.vectors);
    EXPECT_LT(relativeError(s, rec), 1e-5);
    EXPECT_LT(orthonormalityError(e.vectors), 1e-5);
}

TEST(Eigen, RejectsNonSquare)
{
    EXPECT_THROW(symmetricEigen(Tensor({2, 3})), std::runtime_error);
}

TEST(Svd, ReconstructsRandomMatrices)
{
    Rng rng(4);
    for (auto [m, n] : {std::pair<int64_t, int64_t>{8, 5}, {5, 8}, {6, 6}}) {
        Tensor a = Tensor::randn({m, n}, rng);
        SvdResult s = svd(a);
        EXPECT_LT(relativeError(a, s.reconstruct()), 1e-4)
            << m << "x" << n;
        EXPECT_LT(orthonormalityError(s.u), 1e-4);
        // Singular values descending and non-negative.
        for (size_t i = 1; i < s.s.size(); ++i)
            EXPECT_GE(s.s[i - 1], s.s[i] - 1e-9);
        EXPECT_GE(s.s.back(), -1e-12);
    }
}

TEST(Svd, SingularValuesOfKnownMatrix)
{
    // A = diag(3, 2) embedded in a 2x2.
    Tensor a({2, 2}, {3, 0, 0, 2});
    SvdResult s = svd(a);
    EXPECT_NEAR(s.s[0], 3.0, 1e-8);
    EXPECT_NEAR(s.s[1], 2.0, 1e-8);
}

TEST(Svd, FrobeniusNormMatchesSingularValues)
{
    Rng rng(5);
    Tensor a = Tensor::randn({7, 4}, rng);
    SvdResult s = svd(a);
    double sum2 = 0.0;
    for (double v : s.s)
        sum2 += v * v;
    EXPECT_NEAR(std::sqrt(sum2), a.norm(), 1e-5);
}

TEST(TruncatedSvd, ExactForLowRankMatrix)
{
    // Build an exactly rank-2 matrix; rank-2 truncation must be exact.
    Rng rng(6);
    Tensor u = Tensor::randn({8, 2}, rng);
    Tensor v = Tensor::randn({2, 6}, rng);
    Tensor a = matmul(u, v);
    SvdResult s = truncatedSvd(a, 2);
    EXPECT_LT(relativeError(a, s.reconstruct()), 1e-4);
}

TEST(TruncatedSvd, ErrorDecreasesWithRank)
{
    Rng rng(7);
    Tensor a = Tensor::randn({10, 10}, rng);
    double prev = 1e9;
    for (int64_t k : {1, 3, 5, 8, 10}) {
        SvdResult s = truncatedSvd(a, k);
        const double err = relativeError(a, s.reconstruct());
        EXPECT_LE(err, prev + 1e-9) << "rank " << k;
        prev = err;
    }
    EXPECT_LT(prev, 1e-4); // full rank is exact
}

TEST(TruncatedSvd, ErrorEqualsTailSingularValues)
{
    // Eckart-Young: ||A - A_k||_F^2 = sum_{i>k} sigma_i^2.
    Rng rng(8);
    Tensor a = Tensor::randn({9, 6}, rng);
    SvdResult full = svd(a);
    for (int64_t k : {1, 2, 4}) {
        SvdResult trunc = truncatedSvd(a, k);
        double tail = 0.0;
        for (size_t i = static_cast<size_t>(k); i < full.s.size(); ++i)
            tail += full.s[i] * full.s[i];
        EXPECT_NEAR(relativeError(a, trunc.reconstruct()) * a.norm(),
                    std::sqrt(tail), 1e-4);
    }
}

TEST(TruncatedSvd, BeatsRandomProjection)
{
    // Eckart-Young optimality vs an arbitrary rank-k projector.
    Rng rng(9);
    Tensor a = Tensor::randn({12, 12}, rng);
    const int64_t k = 3;
    SvdResult s = truncatedSvd(a, k);
    const double svdErr = relativeError(a, s.reconstruct());
    Tensor q = randomOrthonormal(12, k, rng);
    Tensor proj = matmul(q, matmulTransA(q, a));
    EXPECT_LT(svdErr, relativeError(a, proj));
}

TEST(TruncatedSvd, InvalidRankThrows)
{
    Tensor a({4, 3});
    EXPECT_THROW(truncatedSvd(a, 0), std::runtime_error);
    EXPECT_THROW(truncatedSvd(a, 4), std::runtime_error);
}

TEST(LeftSingularVectors, SpanMatchesTruncatedSvd)
{
    Rng rng(10);
    Tensor a = Tensor::randn({6, 9}, rng);
    const int64_t k = 3;
    Tensor u = leftSingularVectors(a, k);
    EXPECT_EQ(u.shape(), (Shape{6, 3}));
    EXPECT_LT(orthonormalityError(u), 1e-4);
    // Projection of A onto span(U) must capture the same energy as
    // the rank-k SVD reconstruction.
    Tensor proj = matmul(u, matmulTransA(u, a));
    SvdResult s = truncatedSvd(a, k);
    EXPECT_NEAR(relativeError(a, proj), relativeError(a, s.reconstruct()),
                1e-4);
}

TEST(RandomizedSvd, CloseToExactOnDecayingSpectrum)
{
    Rng rng(11);
    // Matrix with fast-decaying spectrum: randomized SVD is accurate.
    const int64_t n = 30;
    Tensor u = randomOrthonormal(n, n, rng);
    Tensor v = randomOrthonormal(n, n, rng);
    Tensor us = u;
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < n; ++j)
            us(i, j) *= std::pow(0.5F, static_cast<float>(j));
    Tensor a = matmulTransB(us, v);

    const int64_t k = 5;
    SvdResult exact = truncatedSvd(a, k);
    SvdResult approx = randomizedSvd(a, k, rng);
    const double exactErr = relativeError(a, exact.reconstruct());
    const double approxErr = relativeError(a, approx.reconstruct());
    EXPECT_LT(approxErr, exactErr * 1.5 + 1e-3);
}

TEST(RandomOrthonormal, ProducesOrthonormalColumns)
{
    Rng rng(12);
    Tensor q = randomOrthonormal(10, 4, rng);
    EXPECT_EQ(q.shape(), (Shape{10, 4}));
    EXPECT_LT(orthonormalityError(q), 1e-5);
    EXPECT_THROW(randomOrthonormal(3, 5, rng), std::runtime_error);
}

/** Property sweep: SVD reconstructs random matrices of random shape. */
class SvdProperty : public ::testing::TestWithParam<int> {};

TEST_P(SvdProperty, ReconstructionAndOrdering)
{
    Rng rng(static_cast<uint64_t>(300 + GetParam()));
    const int64_t m = 2 + static_cast<int64_t>(rng.uniformInt(12));
    const int64_t n = 2 + static_cast<int64_t>(rng.uniformInt(12));
    Tensor a = Tensor::randn({m, n}, rng);
    SvdResult s = svd(a);
    EXPECT_LT(relativeError(a, s.reconstruct()), 1e-3)
        << m << "x" << n;
    for (size_t i = 1; i < s.s.size(); ++i)
        EXPECT_GE(s.s[i - 1], s.s[i] - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, SvdProperty, ::testing::Range(0, 16));

TEST(Eigen, ConvergedDecompositionReportsOkStatus)
{
    Rng rng(55);
    Tensor b = Tensor::randn({6, 6}, rng);
    Tensor a = matmulTransB(b, b); // symmetric PSD
    const EigenResult e = symmetricEigen(a);
    EXPECT_TRUE(e.status.ok());
    EXPECT_GT(e.sweeps, 0);
}

TEST(Eigen, InjectedNonConvergenceIsReportedNotSilent)
{
    clearFaults();
    Rng rng(56);
    Tensor b = Tensor::randn({6, 6}, rng);
    Tensor a = matmulTransB(b, b);

    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    const EigenResult e = symmetricEigen(a);
    clearFaults();
    EXPECT_EQ(e.status.code(), StatusCode::NonConvergence);
    EXPECT_STREQ(e.status.site(), "jacobi");

    // The status propagates through the SVD wrappers.
    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    const SvdResult s = truncatedSvd(Tensor::randn({8, 5}, rng), 3);
    clearFaults();
    EXPECT_EQ(s.status.code(), StatusCode::NonConvergence);
}

} // namespace
} // namespace lrd
