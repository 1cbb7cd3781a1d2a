/**
 * @file
 * Tests for Tucker decomposition: HOSVD, HOI (Algorithm 1), the 2D
 * three-factor weight form, and the compression-ratio arithmetic of
 * Section 2.3.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "decomp/tucker.h"
#include "linalg/linalg.h"
#include "tensor/ops.h"
#include "tensor/unfold.h"
#include "util/logging.h"
#include "util/rng.h"

namespace lrd {
namespace {

/** Build an exactly low-multilinear-rank tensor core x_i U_i. */
Tensor
makeLowRankTensor(const Shape &shape, const std::vector<int64_t> &ranks,
                  Rng &rng)
{
    Tensor core = Tensor::randn(ranks, rng);
    Tensor t = core;
    for (size_t m = 0; m < shape.size(); ++m) {
        Tensor u = randomOrthonormal(shape[m], ranks[m],
                                     rng);
        t = modeProduct(t, u, static_cast<int64_t>(m));
    }
    return t;
}

TEST(Hosvd, ExactForLowMultilinearRank)
{
    Rng rng(1);
    Tensor t = makeLowRankTensor({8, 7, 6}, {2, 3, 2}, rng);
    TuckerResult r = hosvd(t, {2, 3, 2});
    EXPECT_LT(relativeError(t, r.reconstruct()), 1e-4);
}

TEST(Hosvd, CoreShapeMatchesRanks)
{
    Rng rng(2);
    Tensor t = Tensor::randn({5, 6, 4}, rng);
    TuckerResult r = hosvd(t, {2, 3, 4});
    EXPECT_EQ(r.core.shape(), (Shape{2, 3, 4}));
    ASSERT_EQ(r.factors.size(), 3U);
    EXPECT_EQ(r.factors[0].shape(), (Shape{5, 2}));
    EXPECT_EQ(r.factors[1].shape(), (Shape{6, 3}));
    EXPECT_EQ(r.factors[2].shape(), (Shape{4, 4}));
}

TEST(Hosvd, FactorsAreOrthonormal)
{
    Rng rng(3);
    Tensor t = Tensor::randn({6, 5, 4}, rng);
    TuckerResult r = hosvd(t, {3, 2, 2});
    for (const auto &f : r.factors)
        EXPECT_LT(orthonormalityError(f), 1e-4);
}

TEST(Hosvd, FullRankIsExact)
{
    Rng rng(4);
    Tensor t = Tensor::randn({4, 5, 3}, rng);
    TuckerResult r = hosvd(t, {4, 5, 3});
    EXPECT_LT(relativeError(t, r.reconstruct()), 1e-4);
}

TEST(Hooi, ImprovesOrMatchesHosvd)
{
    Rng rng(5);
    Tensor t = Tensor::randn({8, 8, 8}, rng);
    const std::vector<int64_t> ranks = {3, 3, 3};
    TuckerResult h = hosvd(t, ranks);
    TuckerResult o = hooi(t, ranks);
    const double hErr = relativeError(t, h.reconstruct());
    const double oErr = relativeError(t, o.reconstruct());
    EXPECT_LE(oErr, hErr + 1e-6);
}

TEST(Hooi, ExactForLowMultilinearRank)
{
    Rng rng(6);
    Tensor t = makeLowRankTensor({7, 6, 5}, {2, 2, 3}, rng);
    TuckerResult r = hooi(t, {2, 2, 3});
    EXPECT_LT(relativeError(t, r.reconstruct()), 1e-4);
}

TEST(Hooi, WorksOnMatricesAndMatchesSvd)
{
    Rng rng(8);
    Tensor a = Tensor::randn({10, 8}, rng);
    const int64_t k = 3;
    TuckerResult r = hooi(a, {k, k});
    SvdResult s = truncatedSvd(a, k);
    // 2D Tucker at equal ranks is exactly the truncated SVD subspace.
    EXPECT_NEAR(relativeError(a, r.reconstruct()),
                relativeError(a, s.reconstruct()), 1e-4);
}

TEST(Hooi, RejectsInvalidRanks)
{
    Tensor t({4, 4, 4});
    EXPECT_THROW(hooi(t, {0, 2, 2}), std::runtime_error);
    EXPECT_THROW(hooi(t, {5, 2, 2}), std::runtime_error);
    EXPECT_THROW(hooi(t, {2, 2}), std::runtime_error);
}

TEST(Hooi, ErrorMonotonicInRank)
{
    Rng rng(9);
    Tensor t = Tensor::randn({8, 8, 8}, rng);
    double prev = 1e9;
    for (int64_t k : {1, 2, 4, 8}) {
        TuckerResult r = hooi(t, {k, k, k});
        const double err = relativeError(t, r.reconstruct());
        EXPECT_LE(err, prev + 1e-6) << "rank " << k;
        prev = err;
    }
}

TEST(Tucker2d, ShapesAndDiagonalCore)
{
    Rng rng(10);
    Tensor w = Tensor::randn({12, 9}, rng);
    Tucker2d d = tucker2dDecompose(w, 4);
    EXPECT_EQ(d.u1.shape(), (Shape{12, 4}));
    EXPECT_EQ(d.core.shape(), (Shape{4, 4}));
    EXPECT_EQ(d.u2.shape(), (Shape{4, 9}));
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t j = 0; j < 4; ++j)
            if (i != j) {
                EXPECT_FLOAT_EQ(d.core(i, j), 0.0F);
            }
    // Core diagonal holds descending singular values.
    for (int64_t i = 1; i < 4; ++i)
        EXPECT_GE(d.core(i - 1, i - 1), d.core(i, i) - 1e-6F);
}

TEST(Tucker2d, ReconstructionMatchesTruncatedSvd)
{
    Rng rng(11);
    Tensor w = Tensor::randn({16, 10}, rng);
    for (int64_t pr : {1, 3, 8}) {
        Tucker2d d = tucker2dDecompose(w, pr);
        SvdResult s = truncatedSvd(w, pr);
        EXPECT_LT(relativeError(d.reconstruct(), s.reconstruct()), 1e-5)
            << "pr " << pr;
    }
}

TEST(Tucker2d, PrefixOfOneSvdIsBitwiseThePerRankDecomposition)
{
    // The decompose-once fact: svd() never looks at the pruned rank, so
    // every rank-k factorization is a prefix of the one full SVD, bit
    // for bit, for short-fat and tall weights alike.
    Rng rng(13);
    const auto sameBits = [](const Tensor &a, const Tensor &b) {
        return a.shape() == b.shape()
               && std::memcmp(a.data(), b.data(),
                              static_cast<size_t>(a.size()) * sizeof(float))
                      == 0;
    };
    for (const Shape &shape : {Shape{9, 14}, Shape{17, 6}}) {
        const Tensor w = Tensor::randn(shape, rng);
        const SvdResult full = svd(w);
        const int64_t maxRank = std::min(shape[0], shape[1]);
        for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{5}, maxRank}) {
            SCOPED_TRACE(strCat(shape, " k=", k));
            const Tucker2d sliced = tucker2dFromSvd(full, k);
            const Tucker2d direct = tucker2dDecompose(w, k);
            EXPECT_TRUE(sameBits(sliced.u1, direct.u1));
            EXPECT_TRUE(sameBits(sliced.core, direct.core));
            EXPECT_TRUE(sameBits(sliced.u2, direct.u2));
        }
    }
}

TEST(Tucker2d, ParamCountMatchesFormula)
{
    Rng rng(12);
    Tensor w = Tensor::randn({20, 14}, rng);
    Tucker2d d = tucker2dDecompose(w, 3);
    EXPECT_EQ(d.paramCount(), decomposedParams(20, 14, 3));
}

TEST(Tucker2d, InvalidRankThrows)
{
    Tensor w({4, 6});
    EXPECT_THROW(tucker2dDecompose(w, 0), std::runtime_error);
    EXPECT_THROW(tucker2dDecompose(w, 5), std::runtime_error);
}

TEST(Compression, RatioFormula)
{
    // H=W=4096, pr=1: ratio = 4096^2 / (4096 + 1 + 4096).
    const double r = compressionRatio(4096, 4096, 1);
    EXPECT_NEAR(r, 4096.0 * 4096.0 / 8193.0, 1e-6);
    EXPECT_GT(r, 2000.0);
}

TEST(Compression, BreakEvenRankShrinksParams)
{
    for (auto [h, w] : {std::pair<int64_t, int64_t>{4096, 4096},
                        {4096, 11008}, {768, 3072}, {16, 16}}) {
        const int64_t pr = breakEvenRank(h, w);
        EXPECT_GT(pr, 0);
        EXPECT_LT(decomposedParams(h, w, pr), denseParams(h, w))
            << h << "x" << w;
        EXPECT_GE(decomposedParams(h, w, pr + 1), denseParams(h, w))
            << h << "x" << w;
    }
}

TEST(Compression, SquareBreakEvenNearHalf)
{
    // For H=W=n, the break-even rank is (sqrt(8)-2)/2 * n ~= 0.414 n.
    const int64_t pr = breakEvenRank(1000, 1000);
    EXPECT_NEAR(static_cast<double>(pr), 413.0, 2.0);
}

TEST(TuckerResult, ParamCountSumsCoreAndFactors)
{
    Rng rng(13);
    Tensor t = Tensor::randn({5, 6, 7}, rng);
    TuckerResult r = hosvd(t, {2, 3, 2});
    EXPECT_EQ(r.paramCount(), 2 * 3 * 2 + 5 * 2 + 6 * 3 + 7 * 2);
}

/** Property: rank-pruned 2D decomposition error equals the optimal
 *  (Eckart-Young) error for every rank. */
class Tucker2dOptimal : public ::testing::TestWithParam<int> {};

TEST_P(Tucker2dOptimal, MatchesEckartYoung)
{
    Rng rng(static_cast<uint64_t>(400 + GetParam()));
    const int64_t h = 5 + static_cast<int64_t>(rng.uniformInt(10));
    const int64_t w = 5 + static_cast<int64_t>(rng.uniformInt(10));
    Tensor a = Tensor::randn({h, w}, rng);
    SvdResult full = svd(a);
    const int64_t pr =
        1 + static_cast<int64_t>(rng.uniformInt(
                static_cast<uint64_t>(std::min(h, w))));
    Tucker2d d = tucker2dDecompose(a, pr);
    double tail = 0.0;
    for (size_t i = static_cast<size_t>(pr); i < full.s.size(); ++i)
        tail += full.s[i] * full.s[i];
    EXPECT_NEAR(relativeError(a, d.reconstruct()) * a.norm(),
                std::sqrt(tail), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, Tucker2dOptimal,
                         ::testing::Range(0, 12));

} // namespace
} // namespace lrd
