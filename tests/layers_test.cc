/**
 * @file
 * Granular per-layer tests: isolated finite-difference gradient
 * checks for RMSNorm / LayerNorm / Mlp / MultiHeadAttention / Linear
 * (dense and factorized), RoPE and attention structural properties,
 * and activation-aware factorization correctness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "dse/activation_aware.h"
#include "model/attention.h"
#include "model/mlp.h"
#include "model/norms.h"
#include "model/rope.h"
#include "model/tape.h"
#include "robust/recovery.h"
#include "tensor/ops.h"

namespace lrd {
namespace {

/**
 * Generic FD gradient check for a module mapping (n, d) -> (n, e).
 * Loss = sum of (output .* weights) for a fixed random weighting, so
 * dLoss/dOutput is that weighting. One taped forward and one backward
 * give every analytic gradient; the perturbed forwards run untaped.
 */
template <typename Module>
void
checkModuleGradients(Module &module, const Tensor &x, double tol = 0.08)
{
    Rng rng(321);
    Tape tape;
    Tensor y = module.forward(x, &tape);
    Tensor dY = Tensor::randn(y.shape(), rng);

    const std::vector<Parameter *> params = module.parameters();
    Gradients grads(params);
    Tensor dX = module.backward(dY, tape, grads);

    auto lossAt = [&](const Tensor &input) {
        Tensor out = module.forward(input);
        return dot(out, dY);
    };

    // Check input gradient on sampled coordinates.
    int failed = 0, checked = 0;
    Tensor xCopy = x;
    for (int s = 0; s < 8; ++s) {
        const auto i = static_cast<int64_t>(
            rng.uniformInt(static_cast<uint64_t>(x.size())));
        const float orig = xCopy[i];
        const float eps = 1e-2F;
        xCopy[i] = orig + eps;
        const double up = lossAt(xCopy);
        xCopy[i] = orig - eps;
        const double down = lossAt(xCopy);
        xCopy[i] = orig;
        const double numeric = (up - down) / (2.0 * eps);
        const double analytic = dX[i];
        const double scale =
            std::max({std::abs(numeric), std::abs(analytic), 1e-3});
        ++checked;
        if (std::abs(numeric - analytic) / scale > tol)
            ++failed;
    }
    // Check parameter gradients.
    for (Parameter *p : params) {
        for (int s = 0; s < 4; ++s) {
            const auto i = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(p->value.size())));
            const float orig = p->value[i];
            const float eps = 1e-2F;
            p->value[i] = orig + eps;
            const double up = lossAt(x);
            p->value[i] = orig - eps;
            const double down = lossAt(x);
            p->value[i] = orig;
            const double numeric = (up - down) / (2.0 * eps);
            const double analytic = grads.of(*p)[i];
            const double scale =
                std::max({std::abs(numeric), std::abs(analytic), 1e-3});
            ++checked;
            if (std::abs(numeric - analytic) / scale > tol)
                ++failed;
        }
    }
    EXPECT_LE(failed, checked / 10)
        << failed << "/" << checked << " gradient checks failed";
}

TEST(LayerGrad, RmsNorm)
{
    Rng rng(1);
    RmsNorm norm(12, "t");
    Tensor x = Tensor::randn({5, 12}, rng);
    checkModuleGradients(norm, x);
}

TEST(LayerGrad, LayerNorm)
{
    Rng rng(2);
    LayerNorm norm(10, "t");
    Tensor x = Tensor::randn({4, 10}, rng);
    checkModuleGradients(norm, x);
}

TEST(LayerGrad, LinearDenseWithBias)
{
    Rng rng(3);
    Linear lin(7, 9, true, "t", &rng);
    Tensor x = Tensor::randn({4, 9}, rng);
    checkModuleGradients(lin, x);
}

TEST(LayerGrad, LinearFactorized)
{
    Rng rng(4);
    Linear lin(8, 10, false, "t", &rng);
    ASSERT_TRUE(lin.factorize(3).ok());
    Tensor x = Tensor::randn({5, 10}, rng);
    checkModuleGradients(lin, x);
}

TEST(LayerGrad, SwigluMlp)
{
    Rng rng(5);
    ModelConfig cfg = testLlamaConfig();
    Mlp mlp(cfg, 0, &rng);
    Tensor x = Tensor::randn({4, cfg.dModel}, rng);
    checkModuleGradients(mlp, x);
}

TEST(LayerGrad, GeluMlp)
{
    Rng rng(6);
    ModelConfig cfg = testBertConfig();
    Mlp mlp(cfg, 0, &rng);
    Tensor x = Tensor::randn({4, cfg.dModel}, rng);
    checkModuleGradients(mlp, x);
}

TEST(LayerGrad, CausalAttentionWithRope)
{
    Rng rng(7);
    ModelConfig cfg = testLlamaConfig();
    MultiHeadAttention attn(cfg, 0, &rng);
    Tensor x = Tensor::randn({6, cfg.dModel}, rng);
    checkModuleGradients(attn, x);
}

TEST(LayerGrad, BidirectionalAttention)
{
    Rng rng(8);
    ModelConfig cfg = testBertConfig();
    MultiHeadAttention attn(cfg, 0, &rng);
    Tensor x = Tensor::randn({6, cfg.dModel}, rng);
    checkModuleGradients(attn, x);
}

TEST(Norms, RmsNormOutputHasUnitRms)
{
    Rng rng(9);
    RmsNorm norm(16, "t");
    Tensor x = Tensor::randn({3, 16}, rng, 5.0F);
    Tensor y = norm.forward(x);
    for (int64_t i = 0; i < 3; ++i) {
        double ms = 0.0;
        for (int64_t j = 0; j < 16; ++j)
            ms += static_cast<double>(y(i, j)) * y(i, j);
        EXPECT_NEAR(std::sqrt(ms / 16.0), 1.0, 1e-3);
    }
}

TEST(Norms, RmsNormScaleInvariance)
{
    // RMSNorm(a * x) == RMSNorm(x) for a > 0.
    Rng rng(10);
    RmsNorm norm(8, "t");
    Tensor x = Tensor::randn({2, 8}, rng);
    Tensor y1 = norm.forward(x);
    Tensor y2 = norm.forward(scale(x, 7.5F));
    EXPECT_LT(relativeError(y1, y2), 1e-4);
}

TEST(Norms, LayerNormOutputStandardized)
{
    Rng rng(11);
    LayerNorm norm(32, "t");
    Tensor x = Tensor::randn({2, 32}, rng, 3.0F);
    Tensor y = norm.forward(x);
    for (int64_t i = 0; i < 2; ++i) {
        double mean = 0.0, var = 0.0;
        for (int64_t j = 0; j < 32; ++j)
            mean += y(i, j);
        mean /= 32.0;
        for (int64_t j = 0; j < 32; ++j)
            var += (y(i, j) - mean) * (y(i, j) - mean);
        var /= 32.0;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(Rope, OneTokenAttentionIsTheProjectedValue)
{
    // Position 0 rotates by the identity and one causal row attends
    // only to itself with weight exactly 1, so the output is Wso(Wv(x))
    // bit for bit.
    Rng rng(12);
    const ModelConfig llama = testLlamaConfig();
    MultiHeadAttention attn(llama, 0, &rng);
    const Tensor x1 = Tensor::randn({1, llama.dModel}, rng);
    const Tensor a = attn.forward(x1);
    const Tensor v = attn.linear(WeightKind::Value).forward(x1);
    const Tensor want = attn.linear(WeightKind::SelfOutput).forward(v);
    ASSERT_EQ(want.shape(), a.shape());
    EXPECT_EQ(0, std::memcmp(want.data(), a.data(),
                             sizeof(float) * want.storage().size()));
}

/** Euclidean norm, in double, of n floats. */
double
sliceNorm(const float *x, int64_t n)
{
    double sum = 0.0;
    for (int64_t d = 0; d < n; ++d)
        sum += static_cast<double>(x[d]) * static_cast<double>(x[d]);
    return std::sqrt(sum);
}

TEST(Rope, RotationPreservesNorms)
{
    // Each (even, odd) pair of a head slice turns by one angle, so
    // every rotated slice keeps its norm up to the float rounding of
    // the table and the rotation: within 1e-5 relative (it measured
    // below 1e-7). The last shape runs past the 4096-position table.
    struct Shape
    {
        int64_t maxSeq, headDim, heads, first;
    };
    const ModelConfig tiny = tinyLlamaConfig();
    const ModelConfig test = testLlamaConfig();
    Rng rng(13);
    double worst = 0.0;
    for (const Shape &shape :
         {Shape{tiny.maxSeq, tiny.headDim(), tiny.nHeads, 0},
          Shape{test.maxSeq, test.headDim(), test.nHeads, 0},
          Shape{4200, 8, 2, 4090}}) {
        const int64_t hd = shape.headDim;
        const RopeTable &table = RopeTable::shared(shape.maxSeq, hd);
        for (bool inverse : {false, true}) {
            const Tensor x = Tensor::randn(
                {shape.maxSeq - shape.first, shape.heads * hd}, rng);
            Tensor rotated = x;
            table.apply(rotated, shape.first, inverse, shape.heads);
            for (int64_t slice = 0; slice < x.size() / hd; ++slice) {
                const double before = sliceNorm(x.data() + slice * hd, hd);
                const double after =
                    sliceNorm(rotated.data() + slice * hd, hd);
                worst = std::max(worst, std::abs(after - before) / before);
            }
        }
    }
    EXPECT_LE(worst, 1e-5);
}

TEST(Rope, ShiftingBothPositionsKeepsScores)
{
    // Position p turns each pair by p times its frequency, so the score
    // of q at p against k at p - d depends on the offset d only: it
    // equals the score at (p + s, p + s - d), within 1e-5 of |q| |k|
    // (it measured below 1e-7).
    const ModelConfig cfg = tinyLlamaConfig();
    const int64_t hd = cfg.headDim();
    const RopeTable &table = RopeTable::shared(cfg.maxSeq, hd);
    Rng rng(14);
    const Tensor q = Tensor::randn({1, hd}, rng);
    const Tensor k = Tensor::randn({1, hd}, rng);
    const auto score = [&](int64_t qPos, int64_t kPos) {
        Tensor qr = q;
        Tensor kr = k;
        table.apply(qr, qPos, false, 1);
        table.apply(kr, kPos, false, 1);
        return dot(qr, kr);
    };
    const double scale = sliceNorm(q.data(), hd) * sliceNorm(k.data(), hd);
    double worst = 0.0;
    for (int64_t p : {3, 10, 40})
        for (int64_t d : {0, 1, 3})
            for (int64_t shift : {1, 7, 50})
                worst = std::max(worst, std::abs(score(p, p - d)
                                                 - score(p + shift,
                                                         p + shift - d))
                                            / scale);
    EXPECT_LE(worst, 1e-5);
    // The offset does move the score, so the check above has teeth.
    EXPECT_GT(std::abs(score(10, 10) - score(10, 7)), 1e-3 * scale);
}

TEST(KvCacheStorage, HoldsOnlyTheAppendedRows)
{
    // The cache stores the rows appended so far, not maxSeq rows.
    Rng rng(14);
    const ModelConfig cfg = testLlamaConfig();
    MultiHeadAttention attn(cfg, 0, &rng);
    KvCache cache;
    EXPECT_EQ(cache.k.size(), 0U);
    EXPECT_EQ(cache.v.size(), 0U);
    (void)attn.forward(Tensor::randn({3, cfg.dModel}, rng), nullptr, &cache);
    EXPECT_EQ(cache.len, 3);
    const auto threeRows = static_cast<size_t>(3 * cfg.kvDim());
    EXPECT_EQ(cache.k.size(), threeRows);
    EXPECT_EQ(cache.v.size(), threeRows);
}

/**
 * x, whose rows hold `heads` head slices of width hd at positions
 * first, first + 1, ..., rotated by the pow/cos/sin formula per
 * element. The volatile products stay rounded to float, as rope.cc's
 * -ffp-contract=off keeps them, whatever this file's build fuses.
 */
Tensor
closedFormRope(const Tensor &x, int64_t first, bool inverse, int64_t heads,
               int64_t hd)
{
    Tensor want = x;
    for (int64_t i = 0; i < x.dim(0); ++i) {
        for (int64_t h = 0; h < heads; ++h) {
            float *head = want.data() + (i * heads + h) * hd;
            for (int64_t d = 0; d < hd; d += 2) {
                const double freq = std::pow(
                    10000.0,
                    -static_cast<double>(d) / static_cast<double>(hd));
                double angle = static_cast<double>(first + i) * freq;
                if (inverse)
                    angle = -angle;
                const auto c = static_cast<float>(std::cos(angle));
                const auto s = static_cast<float>(std::sin(angle));
                const float a = head[d];
                const float b = head[d + 1];
                const volatile float ac = a * c;
                const volatile float bs = b * s;
                const volatile float as = a * s;
                const volatile float bc = b * c;
                head[d] = ac - bs;
                head[d + 1] = as + bc;
            }
        }
    }
    return want;
}

TEST(Rope, TableMatchesClosedFormBitwise)
{
    // The shared table must rotate exactly as the formula does, at
    // every position, in both directions, whether rows arrive as one
    // block or one decode step at a time. tiny-llama and test-llama
    // are tabled in full; the last two shapes run from inside their
    // tables past the 4096-position and 2^18-pair caps.
    struct Shape
    {
        int64_t maxSeq, headDim, heads, first;
    };
    const ModelConfig tiny = tinyLlamaConfig();
    const ModelConfig test = testLlamaConfig();
    for (const Shape &shape :
         {Shape{tiny.maxSeq, tiny.headDim(), tiny.nHeads, 0},
          Shape{test.maxSeq, test.headDim(), test.nHeads, 0},
          Shape{4200, 8, 2, 4090}, Shape{600, 1024, 1, 500}}) {
        const int64_t hd = shape.headDim;
        const int64_t width = shape.heads * hd;
        const int64_t rows = shape.maxSeq - shape.first;
        const RopeTable &table = RopeTable::shared(shape.maxSeq, hd);
        Rng rng(21);
        for (bool inverse : {false, true}) {
            const Tensor x = Tensor::randn({rows, width}, rng);
            const Tensor want =
                closedFormRope(x, shape.first, inverse, shape.heads, hd);
            Tensor block = x;
            table.apply(block, shape.first, inverse, shape.heads);
            EXPECT_EQ(std::memcmp(block.data(), want.data(),
                                  sizeof(float) * want.storage().size()),
                      0)
                << "headDim " << hd << " inverse=" << inverse;
            for (int64_t i = 0; i < rows; ++i) {
                Tensor row({1, width});
                std::memcpy(row.data(), x.data() + i * width,
                            sizeof(float) * static_cast<size_t>(width));
                table.apply(row, shape.first + i, inverse, shape.heads);
                EXPECT_EQ(std::memcmp(row.data(), want.data() + i * width,
                                      sizeof(float)
                                          * static_cast<size_t>(width)),
                          0)
                    << "headDim " << hd << " position " << shape.first + i
                    << " inverse=" << inverse;
            }
        }
        EXPECT_EQ(&table, &RopeTable::shared(shape.maxSeq, hd));
    }
}

TEST(ActivationAware, UnitScalesMatchPlainFactorization)
{
    Rng rngA(14);
    Linear plain(10, 12, false, "t", &rngA);
    Rng rngB(14);
    Linear aware(10, 12, false, "t", &rngB);
    ASSERT_TRUE(plain.factorize(2).ok());
    ASSERT_TRUE(aware.factorizeActivationAware(2, std::vector<float>(12, 1.0F)).ok());
    Tensor x = Tensor::randn({4, 12}, rngA);
    EXPECT_LT(relativeError(plain.forward(x), aware.forward(x)), 1e-4);
}

TEST(ActivationAware, ReducesWeightedReconstructionError)
{
    // With strongly non-uniform input scales, the activation-aware
    // rank-1 approximation must beat the plain one in the scaled
    // metric ||(W_hat - W) diag(s)||.
    Rng rng(15);
    Tensor w = Tensor::randn({16, 16}, rng);
    std::vector<float> s(16, 0.05F);
    for (int i = 0; i < 4; ++i)
        s[static_cast<size_t>(i)] = 4.0F; // few hot features

    auto scaledError = [&](const Tensor &what) {
        double err = 0.0;
        for (int64_t r = 0; r < 16; ++r)
            for (int64_t c = 0; c < 16; ++c) {
                const double d =
                    (static_cast<double>(what(r, c)) - w(r, c))
                    * s[static_cast<size_t>(c)];
                err += d * d;
            }
        return err;
    };

    Rng rngA(16);
    Linear plain(16, 16, false, "t", &rngA);
    plain.weight().value = w;
    ASSERT_TRUE(plain.factorize(1).ok());

    Rng rngB(16);
    Linear aware(16, 16, false, "t", &rngB);
    aware.weight().value = w;
    ASSERT_TRUE(aware.factorizeActivationAware(1, s).ok());

    EXPECT_LT(scaledError(aware.effectiveWeight()),
              scaledError(plain.effectiveWeight()));
}

TEST(ActivationAware, RejectsBadScales)
{
    Rng rng(17);
    Linear lin(4, 4, false, "t", &rng);
    EXPECT_THROW(
        (void)lin.factorizeActivationAware(1, {1.0F, 1.0F}), // wrong size
        std::runtime_error);
    EXPECT_THROW(
        (void)lin.factorizeActivationAware(1, {1.0F, 0.0F, 1.0F, 1.0F}),
        std::runtime_error);
}

TEST(ActivationAware, EndToEndOnModel)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel model(cfg, 18);
    const DecompConfig gamma =
        DecompConfig::allTensors(cfg, {0}, 2);
    std::vector<TokenSeq> calib = {{1, 2, 3, 4, 5}, {5, 4, 3, 2, 1}};
    ASSERT_TRUE(applyActivationAware(model, gamma, calib).ok());
    for (WeightKind k : decomposableKinds(cfg.arch))
        EXPECT_TRUE(model.linear(0, k).isFactorized());
    Tensor logits = model.forward({1, 2, 3});
    EXPECT_LT(firstNonFinite(logits.data(), logits.size()), 0);
}

TEST(ActivationAware, CalibrationRequiresDenseModel)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel model(cfg, 19);
    ASSERT_TRUE(model.linear(0, WeightKind::Query).factorize(1).ok());
    const DecompConfig gamma = DecompConfig::allTensors(cfg, {0}, 1);
    std::vector<TokenSeq> calib = {{1, 2, 3}};
    EXPECT_THROW(calibrateActivationScales(model, gamma, calib),
                 std::runtime_error);
}

TEST(InstallFactorShape, MatchesFactorizeLayout)
{
    Rng rngA(20);
    Linear a(6, 8, false, "t", &rngA);
    ASSERT_TRUE(a.factorize(2).ok());
    Rng rngB(20);
    Linear b(6, 8, false, "t", &rngB);
    b.installFactorShape(2);
    auto pa = a.parameters();
    auto pb = b.parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i]->name, pb[i]->name);
        EXPECT_EQ(pa[i]->value.shape(), pb[i]->value.shape());
    }
}

} // namespace
} // namespace lrd
