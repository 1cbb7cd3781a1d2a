/**
 * @file
 * Fuzz tests of the optimized GEMM kernels against a naive reference
 * triple loop, covering all transpose variants, accumulate modes and
 * degenerate shapes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "model/linear.h"
#include "model/tape.h"
#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "util/memprobe.h"
#include "util/rng.h"

namespace lrd {
namespace {

/** Naive reference: C = A? * B? with explicit index arithmetic. */
void
referenceGemm(const Tensor &a, const Tensor &b, Tensor &c, bool transA,
              bool transB, bool accumulate)
{
    const int64_t m = transA ? a.dim(1) : a.dim(0);
    const int64_t k = transA ? a.dim(0) : a.dim(1);
    const int64_t n = transB ? b.dim(0) : b.dim(1);
    if (!accumulate)
        c.fill(0.0F);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int64_t p = 0; p < k; ++p) {
                const float av = transA ? a(p, i) : a(i, p);
                const float bv = transB ? b(j, p) : b(p, j);
                acc += static_cast<double>(av) * bv;
            }
            c(i, j) += static_cast<float>(acc);
        }
}

/**
 * The skinny gemmTransB arithmetic, one output per call: 16 striped
 * lane accumulators in ascending p, then a fixed 8 -> 4 -> 2 -> 1
 * fold. This is the loop the 16-output kernel replaced, kept as its
 * oracle; built with the library's flags, the compiler contracts its
 * multiply-adds exactly as it does the kernel's.
 */
float
laneDotReference(const float *x, const float *y, int64_t k)
{
    float lane[16] = {};
    int64_t p = 0;
    for (; p + 16 <= k; p += 16)
        for (int64_t l = 0; l < 16; ++l)
            lane[l] += x[p + l] * y[p + l];
    for (int64_t l = 0; p + l < k; ++l)
        lane[l] += x[p + l] * y[p + l];
    for (int64_t l = 0; l < 8; ++l)
        lane[l] += lane[l + 8];
    for (int64_t l = 0; l < 4; ++l)
        lane[l] += lane[l + 4];
    return ((lane[0] + lane[2]) + (lane[1] + lane[3]));
}

/**
 * Oracle inputs. Regime 0 is normals with signed zeros and subnormals
 * mixed in; regime 1 adds sparse infinities and NaNs; regime 2 is all
 * +-1e-40 subnormals, so every product underflows to a signed zero and
 * only the order of the adds decides each output's sign; regime 3
 * makes every such product -0 (A positive, B negative), so an output
 * is -0 only if no add ever touched a lane with +0.
 */
Tensor
skinnyOracleInput(int64_t rows, int64_t cols, Rng &rng, int regime,
                  bool isB)
{
    Tensor t = Tensor::randn({rows, cols}, rng);
    for (int64_t i = 0; i < t.size(); ++i) {
        const double u = rng.uniform();
        if (regime == 3)
            t[i] = isB ? -1e-40F : 1e-40F;
        else if (regime == 2)
            t[i] = u < 0.5 ? 1e-40F : -1e-40F;
        else if (u < 0.05)
            t[i] = 0.0F;
        else if (u < 0.10)
            t[i] = -0.0F;
        else if (u < 0.15)
            t[i] = u < 0.125 ? 1e-40F : -1e-40F;
        else if (regime == 1 && u < 0.16)
            t[i] = u < 0.155 ? std::numeric_limits<float>::infinity()
                             : -std::numeric_limits<float>::infinity();
        else if (regime == 1 && u < 0.17)
            t[i] = std::numeric_limits<float>::quiet_NaN();
    }
    return t;
}

/**
 * Every skinny gemmTransB output equals laneDotReference bit for bit,
 * whatever the SIMD level or thread count: the skinny path follows
 * neither. A NaN output need only be a NaN: when two NaNs meet, x86
 * keeps the payload of the operand the compiler put first, and GCC
 * commutes + and * freely, so not even laneDotReference built in two
 * places agrees with itself on which NaN survives.
 */
TEST(SkinnyGemmTransB, MatchesLaneDotBitwise)
{
    struct Restore
    {
        simd::Level level = simd::activeLevel();
        int threads = ThreadPool::instance().numThreads();
        ~Restore()
        {
            simd::setActiveLevel(level);
            ThreadPool::instance().resize(threads);
        }
    } restore;
    int64_t checked = 0;
    for (const simd::Level level :
         {simd::Level::Scalar, simd::Level::Neon, simd::Level::Avx2,
          simd::Level::Avx512}) {
        if (!simd::levelSupported(level))
            continue;
        simd::setActiveLevel(level);
        for (const int threads : {1, 4}) {
            ThreadPool::instance().resize(threads);
            std::vector<int64_t> ks;
            for (int64_t k = 1; k <= 17; ++k)
                ks.push_back(k);
            for (const int64_t k : {31, 32, 33, 64, 176, 200})
                ks.push_back(k);
            for (const int64_t m : {1, 2, 7, 15})
                for (const int64_t k : ks)
                    for (const int64_t n :
                         {1, 2, 15, 16, 17, 48, 64, 130, 176, 320}) {
                        Rng rng(static_cast<uint64_t>(m * 100003 + k * 1009
                                                      + n));
                        const int regime = static_cast<int>((m + k + n) % 4);
                        Tensor a = skinnyOracleInput(m, k, rng, regime, false);
                        Tensor b = skinnyOracleInput(n, k, rng, regime, true);
                        Tensor before =
                            skinnyOracleInput(m, n, rng, 0, false);
                        for (const bool accumulate : {false, true}) {
                            Tensor want = before;
                            for (int64_t i = 0; i < m; ++i)
                                for (int64_t j = 0; j < n; ++j) {
                                    const float d = laneDotReference(
                                        a.data() + i * k, b.data() + j * k,
                                        k);
                                    want(i, j) =
                                        accumulate ? want(i, j) + d : d;
                                }
                            Tensor got = before;
                            gemmTransB(a.data(), b.data(), got.data(), m, k,
                                       n, accumulate);
                            for (int64_t e = 0; e < got.size(); ++e) {
                                uint32_t wb = 0, gb = 0;
                                std::memcpy(&wb, &want[e], sizeof wb);
                                std::memcpy(&gb, &got[e], sizeof gb);
                                if (std::isnan(want[e]) && std::isnan(got[e]))
                                    continue;
                                ASSERT_EQ(wb, gb)
                                    << simd::levelName(level) << " threads "
                                    << threads << " " << m << "x" << k
                                    << "x" << n << " acc=" << accumulate
                                    << " element " << e << ": want "
                                    << want[e] << " got " << got[e];
                            }
                            ++checked;
                        }
                    }
        }
    }
    EXPECT_GT(checked, 0);
}

class GemmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GemmFuzz, AllVariantsMatchReference)
{
    Rng rng(static_cast<uint64_t>(1000 + GetParam()));
    const int64_t m = 1 + static_cast<int64_t>(rng.uniformInt(17));
    const int64_t k = 1 + static_cast<int64_t>(rng.uniformInt(17));
    const int64_t n = 1 + static_cast<int64_t>(rng.uniformInt(17));
    const bool accumulate = rng.bernoulli(0.5);

    // Plain gemm.
    {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({k, n}, rng);
        Tensor want = Tensor::randn({m, n}, rng);
        Tensor got = want;
        referenceGemm(a, b, want, false, false, accumulate);
        gemm(a.data(), b.data(), got.data(), m, k, n, accumulate);
        EXPECT_LT(relativeError(want, got), 1e-4)
            << m << "x" << k << "x" << n;
    }
    // B transposed.
    {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({n, k}, rng);
        Tensor want = Tensor::randn({m, n}, rng);
        Tensor got = want;
        referenceGemm(a, b, want, false, true, accumulate);
        gemmTransB(a.data(), b.data(), got.data(), m, k, n, accumulate);
        EXPECT_LT(relativeError(want, got), 1e-4);
    }
    // A transposed: c (k x n) = a^T (m x k)^T * b (m x n).
    {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({m, n}, rng);
        Tensor want = Tensor::randn({k, n}, rng);
        Tensor got = want;
        referenceGemm(a, b, want, true, false, accumulate);
        gemmTransA(a.data(), b.data(), got.data(), m, k, n, accumulate);
        EXPECT_LT(relativeError(want, got), 1e-4);
    }
}

INSTANTIATE_TEST_SUITE_P(Random, GemmFuzz, ::testing::Range(0, 20));

TEST(GemmEdge, OneByOne)
{
    Tensor a({1, 1}, {3.0F});
    Tensor b({1, 1}, {-2.0F});
    Tensor c({1, 1});
    gemm(a.data(), b.data(), c.data(), 1, 1, 1, false);
    EXPECT_FLOAT_EQ(c[0], -6.0F);
}

TEST(GemmEdge, SparseInputsMatchReference)
{
    Rng rng(7);
    Tensor a = Tensor::randn({6, 6}, rng);
    for (int64_t i = 0; i < a.size(); i += 2)
        a[i] = 0.0F;
    Tensor b = Tensor::randn({6, 6}, rng);
    Tensor want({6, 6});
    referenceGemm(a, b, want, false, false, false);
    Tensor got({6, 6});
    gemm(a.data(), b.data(), got.data(), 6, 6, 6, false);
    EXPECT_LT(relativeError(want, got), 1e-5);
}

/** Shapes chosen to straddle the blocked kernel's tile sizes
 *  (MR=8, NR=48, KC=384, 32-row A blocks), including 1 x k x 1. */
class GemmOddShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmOddShapes, AllVariantsMatchScalarReference)
{
    const auto [mi, ki, ni] = GetParam();
    const int64_t m = mi, k = ki, n = ni;
    Rng rng(static_cast<uint64_t>(9000 + m * 31 + k * 7 + n));
    for (const bool accumulate : {false, true}) {
        {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({k, n}, rng);
            Tensor want = Tensor::randn({m, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, false, false, accumulate);
            gemm(a.data(), b.data(), got.data(), m, k, n, accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << m << "x" << k << "x" << n << " acc=" << accumulate;
        }
        {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({n, k}, rng);
            Tensor want = Tensor::randn({m, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, false, true, accumulate);
            gemmTransB(a.data(), b.data(), got.data(), m, k, n,
                       accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << m << "x" << k << "x" << n << "^T acc=" << accumulate;
        }
        {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({m, n}, rng);
            Tensor want = Tensor::randn({k, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, true, false, accumulate);
            gemmTransA(a.data(), b.data(), got.data(), m, k, n,
                       accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << m << "^T x" << k << "x" << n << " acc=" << accumulate;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TileBoundaries, GemmOddShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(1, 385, 1),
                      std::make_tuple(1, 17, 49),
                      std::make_tuple(7, 9, 47),
                      std::make_tuple(8, 384, 48),
                      std::make_tuple(9, 385, 49),
                      std::make_tuple(16, 8, 24),
                      std::make_tuple(31, 390, 95),
                      std::make_tuple(33, 401, 97),
                      std::make_tuple(65, 130, 53),
                      std::make_tuple(129, 63, 201)));

/** Pins each microkernel level this host can run and re-checks the
 *  dispatched entry points against the scalar reference; restores the
 *  startup level afterwards. */
class GemmSimdLevel : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override
    {
        restore_ = simd::activeLevel();
        const auto level = static_cast<simd::Level>(GetParam());
        if (!simd::levelSupported(level))
            GTEST_SKIP() << "level '" << simd::levelName(level)
                         << "' not available on this host/build";
        simd::setActiveLevel(level);
    }
    void TearDown() override { simd::setActiveLevel(restore_); }

  private:
    simd::Level restore_ = simd::Level::Scalar;
};

TEST_P(GemmSimdLevel, OddShapesMatchReference)
{
    // Shapes straddling the 8 x 48 register tile, the 384-deep k-slab
    // and the 32-row parallel chunk, so every partial-tile merge path
    // of the pinned kernel is exercised.
    for (const auto &[m, k, n] :
         {std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
          {1, 385, 1},
          {7, 9, 47},
          {9, 385, 49},
          {16, 8, 24},
          {33, 401, 97},
          {65, 130, 53}}) {
        Rng rng(static_cast<uint64_t>(500 + m + k + n));
        for (const bool accumulate : {false, true}) {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({k, n}, rng);
            Tensor want = Tensor::randn({m, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, false, false, accumulate);
            gemm(a.data(), b.data(), got.data(), m, k, n, accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << simd::levelName(simd::activeLevel()) << " " << m << "x"
                << k << "x" << n << " acc=" << accumulate;

            Tensor bt = Tensor::randn({n, k}, rng);
            Tensor wantT = Tensor::randn({m, n}, rng);
            Tensor gotT = wantT;
            referenceGemm(a, bt, wantT, false, true, accumulate);
            gemmTransB(a.data(), bt.data(), gotT.data(), m, k, n,
                       accumulate);
            EXPECT_LT(relativeError(wantT, gotT), 1e-4)
                << simd::levelName(simd::activeLevel()) << " transB " << m
                << "x" << k << "x" << n;
        }
    }
}

TEST_P(GemmSimdLevel, NanPropagates)
{
    // Zero-padded pack lanes must not suppress NaN/Inf: every level
    // computes full padded tiles rather than skipping zero entries.
    const int64_t m = 32, k = 64, n = 64;
    Rng rng(21);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    a(3, 5) = 0.0F;
    b(5, 7) = std::numeric_limits<float>::quiet_NaN();
    Tensor c({m, n});
    gemm(a.data(), b.data(), c.data(), m, k, n, false);
    EXPECT_TRUE(std::isnan(c(3, 7)))
        << simd::levelName(simd::activeLevel());
    EXPECT_FALSE(std::isnan(c(2, 6)))
        << simd::levelName(simd::activeLevel());
}

TEST_P(GemmSimdLevel, MatchesScalarLevelWithinTolerance)
{
    // Cross-level agreement is tolerance-based, not bitwise: wider
    // lanes contract multiply-adds with FMA while the scalar fallback
    // may not, so rounding differs by a few ULPs.
    const int64_t m = 33, k = 390, n = 95;
    Rng rng(22);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor got({m, n});
    gemm(a.data(), b.data(), got.data(), m, k, n, false);

    simd::setActiveLevel(simd::Level::Scalar);
    Tensor scalar({m, n});
    gemm(a.data(), b.data(), scalar.data(), m, k, n, false);
    EXPECT_LT(relativeError(scalar, got), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, GemmSimdLevel,
    ::testing::Values(static_cast<int>(simd::Level::Scalar),
                      static_cast<int>(simd::Level::Neon),
                      static_cast<int>(simd::Level::Avx2),
                      static_cast<int>(simd::Level::Avx512)),
    [](const ::testing::TestParamInfo<int> &levelInfo) {
        return simd::levelName(static_cast<simd::Level>(levelInfo.param));
    });

TEST(SimdDispatch, PerLevelLookupMatchesDispatchTable)
{
    // The parity-test lookup must agree with what dispatch actually
    // installed for the running level.
    EXPECT_EQ(simd::microKernelForLevel(simd::activeLevel()),
              simd::activeKernels().microKernel);
}

/** A factorized forward agrees with a dense layer holding the
 *  contracted weight: same factors, same bias, same input, tolerance
 *  for the different contraction order. */
TEST(FusedFactorizedForward, MatchesUnfusedWithinTolerance)
{
    Rng rng(23);
    for (const auto &[out, in, rank, rows] :
         {std::tuple<int64_t, int64_t, int64_t, int64_t>{64, 48, 12, 33},
          {96, 96, 40, 8},
          {176, 64, 16, 65}}) {
        Linear l(out, in, /*hasBias=*/true, "fusedtest", &rng);
        l.installFactorShape(rank);
        for (Parameter *p : l.parameters())
            p->value = Tensor::randn(p->value.shape(), rng);
        Tensor x = Tensor::randn({rows, in}, rng);
        Linear dense(out, in, /*hasBias=*/true, "fusedtest.dense", nullptr);
        dense.parameters()[0]->value = l.effectiveWeight();
        dense.parameters()[1]->value = l.parameters().back()->value;

        Tensor factorized = l.forward(x);
        Tensor viaDense = dense.forward(x);

        ASSERT_EQ(factorized.dim(0), rows);
        ASSERT_EQ(factorized.dim(1), out);
        // The dense leg contracts U1 * core * U2 first, so its rounding
        // differs from the chain's: 2.0e-7 to 2.2e-7 on these shapes at
        // the scalar, AVX2 and AVX-512 levels.
        EXPECT_LT(relativeError(viaDense, factorized), 1e-6)
            << out << "x" << in << " rank " << rank << " rows " << rows;
    }
}

/** An untaped forward runs the taped forward's chain of three
 *  gemmTransB calls at every row count, with its two (rows, pr)
 *  intermediates in per-thread scratch instead of on the tape: the
 *  same bits, and the output is the one tensor it allocates. The
 *  rows straddle the blocked GEMM's 16-row cutoff and its 32-row
 *  chunk; the ranks put the U2 and core products (width = rank) and
 *  the U1 product (depth = rank) on either side of its 24-wide and
 *  8-deep cutoffs. */
TEST(FusedFactorizedForward, SkinnyInferenceMatchesTrainingChainBitwise)
{
    Rng rng(24);
    for (const int64_t rank : {1, 2, 4, 8, 24}) {
        // in = 40 gives the U2 product a k tail; out = 48 gives the U1
        // product three 16-output groups.
        Linear l(48, 40, /*hasBias=*/true, "fusedtest.skinny", &rng);
        l.installFactorShape(rank);
        for (Parameter *p : l.parameters())
            p->value = Tensor::randn(p->value.shape(), rng);
        for (const int64_t rows :
             {1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 33, 65}) {
            const Tensor x = Tensor::randn({rows, 40}, rng);
            const int64_t before = tensorArenaStats().allocCount;
            const Tensor inference = l.forward(x);
            EXPECT_EQ(tensorArenaStats().allocCount - before, 1)
                << "rank " << rank << " rows " << rows;
            Tape tape;
            const Tensor training = l.forward(x, &tape);
            ASSERT_EQ(inference.shape(), training.shape());
            EXPECT_EQ(std::memcmp(inference.data(), training.data(),
                                  static_cast<size_t>(inference.size())
                                      * sizeof(float)),
                      0)
                << "rank " << rank << " rows " << rows;
        }
    }
}

/** A dense inference forward allocates one tensor, its output. */
TEST(FusedFactorizedForward, DenseInferenceAllocatesOnlyItsOutput)
{
    Rng rng(26);
    Linear l(48, 40, /*hasBias=*/true, "fusedtest.dense1", &rng);
    for (const int64_t rows : {1, 7, 33}) {
        const Tensor x = Tensor::randn({rows, 40}, rng);
        const int64_t before = tensorArenaStats().allocCount;
        const Tensor y = l.forward(x);
        EXPECT_EQ(tensorArenaStats().allocCount - before, 1) << rows;
        EXPECT_EQ(y.dim(0), rows);
    }
}

/** Factor values written through parameters() reach the next 16-row
 *  forward with no further call: it computes what a layer built with
 *  those values computes, bit for bit. */
TEST(FactorizedForward, ParameterWriteReachesNextForward)
{
    Rng rng(25);
    Linear l(40, 40, /*hasBias=*/false, "factorizedtest.write", &rng);
    l.installFactorShape(8);
    for (Parameter *p : l.parameters())
        p->value = Tensor::randn(p->value.shape(), rng);
    const Tensor x = Tensor::randn({16, 40}, rng);
    const Tensor before = l.forward(x);

    for (Parameter *p : l.parameters())
        p->value[0] += 1.0F;
    const Tensor after = l.forward(x);

    Linear fresh(40, 40, /*hasBias=*/false, "factorizedtest.fresh",
                 nullptr);
    fresh.installFactorShape(8);
    for (size_t i = 0; i < fresh.parameters().size(); ++i)
        fresh.parameters()[i]->value = l.parameters()[i]->value;
    const Tensor want = fresh.forward(x);
    ASSERT_EQ(after.shape(), want.shape());
    EXPECT_EQ(std::memcmp(after.data(), want.data(),
                          static_cast<size_t>(want.size()) * sizeof(float)),
              0);
    EXPECT_GT(relativeError(before, after), 1e-6);
}

TEST(GemmEdge, NanPropagatesThroughZeroEntries)
{
    // 0 * NaN must be NaN: the old kernels skipped zero a-values and
    // silently dropped NaN/Inf contributions from b.
    Tensor a({1, 2}, {0.0F, 1.0F});
    Tensor b({2, 1},
             {std::numeric_limits<float>::quiet_NaN(), 2.0F});
    Tensor c({1, 1});
    gemm(a.data(), b.data(), c.data(), 1, 2, 1, false);
    EXPECT_TRUE(std::isnan(c[0]));

    // Same property through the blocked path.
    const int64_t m = 32, k = 64, n = 64;
    Rng rng(11);
    Tensor ab = Tensor::randn({m, k}, rng);
    Tensor bb = Tensor::randn({k, n}, rng);
    ab(3, 5) = 0.0F;
    bb(5, 7) = std::numeric_limits<float>::quiet_NaN();
    Tensor cb({m, n});
    gemm(ab.data(), bb.data(), cb.data(), m, k, n, false);
    EXPECT_TRUE(std::isnan(cb(3, 7)));

    // 0 * inf = NaN propagates through gemmTransA as well.
    Tensor at({1, 1}, {0.0F});
    Tensor bt({1, 1}, {std::numeric_limits<float>::infinity()});
    Tensor ct({1, 1});
    gemmTransA(at.data(), bt.data(), ct.data(), 1, 1, 1, false);
    EXPECT_TRUE(std::isnan(ct[0]));
}

} // namespace
} // namespace lrd
