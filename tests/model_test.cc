/**
 * @file
 * Tests for the transformer model library: configuration arithmetic,
 * dense/factorized Linear equivalence, finite-difference gradient
 * checks through every layer type, causality, KV-cache consistency,
 * serialization, and basic trainability.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "model/transformer.h"
#include "robust/recovery.h"
#include "tensor/ops.h"
#include "tensor/simd/pack.h"
#include "util/rng.h"

namespace lrd {
namespace {

TokenSeq
randomTokens(const ModelConfig &cfg, int64_t n, Rng &rng)
{
    TokenSeq t;
    for (int64_t i = 0; i < n; ++i)
        t.push_back(static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(cfg.vocabSize))));
    return t;
}

std::vector<int>
shiftTargets(const TokenSeq &tokens)
{
    std::vector<int> targets(tokens.begin() + 1, tokens.end());
    targets.push_back(-1);
    return targets;
}

TEST(Config, ValidationCatchesBadDims)
{
    ModelConfig c = testLlamaConfig();
    c.nHeads = 3; // 16 % 3 != 0
    EXPECT_THROW(c.validate(), std::runtime_error);
    c = testLlamaConfig();
    c.vocabSize = 0;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(Config, DecomposableKindCountsMatchPaper)
{
    // Figure 4: 7 tensors in a Llama layer, 6 in a BERT layer.
    EXPECT_EQ(decomposableKinds(Arch::LlamaStyle).size(), 7U);
    EXPECT_EQ(decomposableKinds(Arch::BertStyle).size(), 6U);
}

TEST(Config, WeightShapesMatchArchitecture)
{
    ModelConfig llama = llama2_7bConfig();
    EXPECT_EQ(llama.weightShape(WeightKind::Query),
              (std::vector<int64_t>{4096, 4096}));
    EXPECT_EQ(llama.weightShape(WeightKind::Gate),
              (std::vector<int64_t>{11008, 4096}));
    EXPECT_EQ(llama.weightShape(WeightKind::Down),
              (std::vector<int64_t>{4096, 11008}));
    EXPECT_THROW(llama.weightShape(WeightKind::Intermediate),
                 std::runtime_error);

    ModelConfig bert = bertBaseConfig();
    EXPECT_EQ(bert.weightShape(WeightKind::Intermediate),
              (std::vector<int64_t>{3072, 768}));
    EXPECT_THROW(bert.weightShape(WeightKind::Gate), std::runtime_error);
}

TEST(Config, FullSizeParamCountsMatchPublishedScale)
{
    // Llama2-7B has ~6.7B parameters; BERT-Base ~110M.
    const double llama = static_cast<double>(llama2_7bConfig().totalParams());
    EXPECT_GT(llama, 6.5e9);
    EXPECT_LT(llama, 7.1e9);
    // Our BERT config uses an untied LM head (+23M over the published
    // tied-decoder 110M).
    const double bert = static_cast<double>(bertBaseConfig().totalParams());
    EXPECT_GT(bert, 1.0e8);
    EXPECT_LT(bert, 1.4e8);
}

TEST(Config, ModelParamCountMatchesConfigFormula)
{
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg);
        EXPECT_EQ(m.paramCount(), cfg.totalParams()) << cfg.name;
    }
}

TEST(Linear, FactorizeReducesParamsPerFormula)
{
    Rng rng(1);
    Linear l(24, 16, false, "t", &rng);
    const int64_t dense = l.paramCount();
    EXPECT_EQ(dense, 24 * 16);
    ASSERT_TRUE(l.factorize(2).ok());
    EXPECT_TRUE(l.isFactorized());
    EXPECT_EQ(l.paramCount(), 24 * 2 + 2 * 2 + 2 * 16);
    EXPECT_LT(l.paramCount(), dense);
}

TEST(Linear, FullRankFactorizationPreservesOutput)
{
    Rng rng(2);
    Linear l(12, 10, false, "t", &rng);
    Tensor x = Tensor::randn({5, 10}, rng);
    Tensor dense = l.forward(x);
    ASSERT_TRUE(l.factorize(10).ok());
    Tensor fact = l.forward(x);
    EXPECT_LT(relativeError(dense, fact), 1e-3);
}

TEST(Linear, DensifyRoundTrip)
{
    // Contracting full-rank factors gives the dense weight back.
    Rng rng(3);
    Linear l(8, 8, false, "t", &rng);
    Tensor w0 = l.weight().value;
    ASSERT_TRUE(l.factorize(8).ok());
    EXPECT_LT(relativeError(w0, l.effectiveWeight()), 1e-4);
}

TEST(Linear, FactorizedOutputErrorShrinksWithRank)
{
    Rng rng(4);
    Tensor x = Tensor::randn({6, 20}, rng);
    double prev = 1e9;
    for (int64_t pr : {1, 4, 10, 16}) {
        Rng r1(4);
        Linear l(16, 20, false, "t", &r1);
        Rng r2(4);
        Linear dense(16, 20, false, "t", &r2);
        Tensor want = dense.forward(x);
        ASSERT_TRUE(l.factorize(pr).ok());
        const double err = relativeError(want, l.forward(x));
        EXPECT_LE(err, prev + 1e-6) << "pr " << pr;
        prev = err;
    }
    EXPECT_LT(prev, 1e-3);
}

TEST(Linear, WeightAccessorFatalWhenFactorized)
{
    Rng rng(5);
    Linear l(4, 4, false, "t", &rng);
    ASSERT_TRUE(l.factorize(1).ok());
    EXPECT_THROW(l.weight(), std::runtime_error);
    EXPECT_THROW(l.factorize(1), std::runtime_error);
}

TEST(Model, ForwardShapeAndFiniteness)
{
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg);
        Rng rng(6);
        TokenSeq toks = randomTokens(cfg, 10, rng);
        Tensor logits = m.forward(toks);
        EXPECT_EQ(logits.shape(), (Shape{10, cfg.vocabSize})) << cfg.name;
        EXPECT_LT(firstNonFinite(logits.data(), logits.size()), 0)
            << cfg.name;
    }
}

TEST(Model, ForwardRejectsOverlongSequence)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    Rng rng(7);
    TokenSeq toks = randomTokens(cfg, cfg.maxSeq + 1, rng);
    EXPECT_THROW(m.forward(toks), std::runtime_error);
}

TEST(Model, CausalityFutureTokensDoNotAffectPast)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    Rng rng(8);
    TokenSeq a = randomTokens(cfg, 8, rng);
    TokenSeq b = a;
    b[7] = (b[7] + 1) % static_cast<int>(cfg.vocabSize);
    Tensor la = m.forward(a);
    Tensor lb = m.forward(b);
    // Rows 0..6 must be identical; row 7 must differ.
    for (int64_t i = 0; i < 7; ++i)
        for (int64_t j = 0; j < cfg.vocabSize; ++j)
            ASSERT_FLOAT_EQ(la(i, j), lb(i, j)) << "row " << i;
    double diff = 0.0;
    for (int64_t j = 0; j < cfg.vocabSize; ++j)
        diff += std::abs(la(7, j) - lb(7, j));
    EXPECT_GT(diff, 1e-4);
}

TEST(Model, BertIsBidirectional)
{
    ModelConfig cfg = testBertConfig();
    TransformerModel m(cfg);
    Rng rng(9);
    TokenSeq a = randomTokens(cfg, 8, rng);
    TokenSeq b = a;
    b[7] = (b[7] + 1) % static_cast<int>(cfg.vocabSize);
    Tensor la = m.forward(a);
    Tensor lb = m.forward(b);
    // Early rows must change: the encoder attends to the future.
    double diff = 0.0;
    for (int64_t j = 0; j < cfg.vocabSize; ++j)
        diff += std::abs(la(0, j) - lb(0, j));
    EXPECT_GT(diff, 1e-6);
}

/** Row `row` of the (T, vocab) `logits` equals `last` bit for bit. */
bool
sameBits(const Tensor &logits, int64_t row, const Tensor &last)
{
    const int64_t vocab = logits.dim(1);
    return last.size() == vocab
           && std::memcmp(logits.data() + row * vocab, last.data(),
                          sizeof(float) * static_cast<size_t>(vocab))
                  == 0;
}

/**
 * A session fed `toks` matches forward() of each prefix. A one-chunk
 * prefill runs forward's GEMMs on forward's rows, so its last row is
 * forward's bit for bit at every length. One-token appends run one-row
 * GEMMs, which equal forward's only while the prefix is under
 * 2 * simd::kMr rows (useBlockedGemm's cutoff); from there forward's
 * blocked GEMM sums in its own order.
 */
void
expectSessionMatchesForward(const TransformerModel &m, const TokenSeq &toks)
{
    InferenceSession stepped(m);
    for (size_t n = 1; n <= toks.size(); ++n) {
        const TokenSeq prefix(toks.begin(),
                              toks.begin() + static_cast<long>(n));
        const Tensor full = m.forward(prefix);
        const auto rows = static_cast<int64_t>(n);
        const int64_t last = rows - 1;
        InferenceSession chunk(m);
        EXPECT_TRUE(sameBits(full, last, chunk.append(prefix)))
            << "one-chunk prefill of " << n << " tokens";
        const Tensor step = stepped.append({toks[n - 1]});
        if (rows < 2 * simd::kMr) {
            EXPECT_TRUE(sameBits(full, last, step))
                << "one-token appends to " << n << " tokens";
            continue;
        }
        // ROADMAP direction 1, step 2 (one accumulation order for every
        // GEMM shape) makes these bitwise too.
        for (int64_t j = 0; j < step.size(); ++j)
            ASSERT_NEAR(step[j], full(last, j), 2e-3)
                << "one-token appends to " << n << " tokens";
    }
}

TEST(Model, KvCacheMatchesFullForward)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    Rng rng(10);
    expectSessionMatchesForward(m, randomTokens(cfg, cfg.maxSeq, rng));
}

TEST(Model, KvCacheWorksWithFactorizedLayers)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    for (WeightKind k : decomposableKinds(cfg.arch))
        ASSERT_TRUE(m.linear(0, k).factorize(2).ok());
    Rng rng(11);
    expectSessionMatchesForward(m, randomTokens(cfg, cfg.maxSeq, rng));
}

TEST(Model, ScoreContinuationMatchesFullForward)
{
    // Eight tokens, under the 16-row GEMM cutoff: bitwise, dense and
    // factorized.
    ModelConfig cfg = testLlamaConfig();
    TransformerModel dense(cfg);
    TransformerModel factorized(cfg);
    for (WeightKind k : decomposableKinds(cfg.arch))
        ASSERT_TRUE(factorized.linear(0, k).factorize(2).ok());
    Rng rng(12);
    TokenSeq ctx = randomTokens(cfg, 5, rng);
    TokenSeq cont = randomTokens(cfg, 3, rng);
    TokenSeq all = ctx;
    all.insert(all.end(), cont.begin(), cont.end());

    for (const TransformerModel *m : {&dense, &factorized}) {
        Tensor lp = logSoftmaxLastDim(m->forward(all));
        double want = 0.0;
        for (size_t i = 0; i < cont.size(); ++i)
            want += lp(static_cast<int64_t>(ctx.size() + i) - 1, cont[i]);
        EXPECT_EQ(scoreContinuation(*m, ctx, cont), want)
            << (m == &dense ? "dense" : "factorized");
    }
}

TEST(Model, SerializationRoundTripsExactLogits)
{
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg, /*seed=*/99);
        auto bytes = m.serialize();
        TransformerModel m2 = TransformerModel::deserialize(bytes);
        Rng rng(13);
        TokenSeq toks = randomTokens(cfg, 7, rng);
        EXPECT_LT(relativeError(m.forward(toks), m2.forward(toks)), 1e-7)
            << cfg.name;
    }
}

TEST(Model, FactorizedSerializationRoundTrips)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 42);
    ASSERT_TRUE(m.linear(1, WeightKind::Gate).factorize(2).ok());
    ASSERT_TRUE(m.linear(0, WeightKind::Query).factorize(1).ok());
    const auto bytes = m.serialize();
    TransformerModel m2 = TransformerModel::deserialize(bytes);
    EXPECT_TRUE(m2.linear(1, WeightKind::Gate).isFactorized());
    EXPECT_TRUE(m2.linear(0, WeightKind::Query).isFactorized());
    EXPECT_EQ(m2.paramCount(), m.paramCount());
    Rng rng(4);
    TokenSeq toks = randomTokens(cfg, 6, rng);
    EXPECT_LT(relativeError(m.forward(toks), m2.forward(toks)), 1e-7);
    // A compressed checkpoint is smaller than the dense one.
    TransformerModel dense(cfg, 42);
    EXPECT_LT(bytes.size(), dense.serialize().size());
}

TEST(Model, ApplyTuckerReducesParamCount)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    const int64_t before = m.paramCount();
    ASSERT_TRUE(m.linear(0, WeightKind::Query).factorize(1).ok());
    const int64_t after = m.paramCount();
    // Test config dModel = 16, pr = 1: dense 256 -> 16 + 1 + 16.
    EXPECT_EQ(before - after, 16 * 16 - (16 * 1 + 1 * 1 + 1 * 16));
}

TEST(Gqa, MatchesMhaWhenKvHeadsEqualHeads)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel mha(cfg, 33);
    ModelConfig gqaCfg = cfg;
    gqaCfg.nKvHeads = cfg.nHeads; // explicit == implicit
    TransformerModel gqa(gqaCfg, 33);
    Rng rng(50);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    EXPECT_LT(relativeError(mha.forward(toks), gqa.forward(toks)), 1e-7);
}

TEST(Gqa, GroupedKvReducesParamsAndStaysConsistent)
{
    ModelConfig cfg = testLlamaConfig(); // 2 heads
    cfg.nKvHeads = 1;
    cfg.validate();
    TransformerModel m(cfg, 34);
    ModelConfig full = testLlamaConfig();
    TransformerModel mFull(full, 34);
    EXPECT_LT(m.paramCount(), mFull.paramCount());
    EXPECT_EQ(m.paramCount(), cfg.totalParams());

    // KV-cache equivalence must hold under GQA too.
    Rng rng(51);
    expectSessionMatchesForward(m, randomTokens(cfg, cfg.maxSeq, rng));
}

TEST(Gqa, GradientsFlowThroughGroupedHeads)
{
    ModelConfig cfg = testLlamaConfig();
    cfg.nKvHeads = 1;
    TransformerModel m(cfg, 35);
    Rng rng(52);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    std::vector<int> targets = shiftTargets(toks);
    const double initial = m.loss(toks, targets);
    double last = initial;
    Gradients grads(m.parameters());
    for (int step = 0; step < 10; ++step) {
        grads.zero();
        last = m.lossAndGrad(toks, targets, grads);
        for (Parameter *p : m.parameters())
            axpy(p->value, -0.05F, grads.of(*p));
    }
    EXPECT_LT(last, initial - 0.05);
}

TEST(Gqa, InvalidKvHeadsRejected)
{
    ModelConfig cfg = testLlamaConfig(); // 2 heads
    cfg.nKvHeads = 3; // does not divide
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Gqa, Llama70bParamCountMatchesPublished)
{
    // With GQA the 70B config must land near the published ~69B.
    const double params =
        static_cast<double>(llama2_70bConfig().totalParams());
    EXPECT_GT(params, 66e9);
    EXPECT_LT(params, 72e9);
}

TEST(Model, LossDecreasesUnderSgd)
{
    // A few steps of plain SGD on one batch must reduce the loss:
    // validates the end-to-end gradient direction.
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg, 7);
        Rng rng(14);
        TokenSeq toks = randomTokens(cfg, 12, rng);
        std::vector<int> targets = shiftTargets(toks);
        const double initial = m.loss(toks, targets);
        double last = initial;
        Gradients grads(m.parameters());
        for (int step = 0; step < 10; ++step) {
            grads.zero();
            last = m.lossAndGrad(toks, targets, grads);
            for (Parameter *p : m.parameters())
                axpy(p->value, -0.05F, grads.of(*p));
        }
        EXPECT_LT(last, initial - 0.05) << cfg.name;
    }
}

TEST(Model, GreedyGenerateIsDeterministicAndBounded)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    TokenSeq prompt = {1, 2, 3};
    TokenSeq a = greedyGenerate(m, prompt, 5, /*stopToken=*/-1);
    TokenSeq b = greedyGenerate(m, prompt, 5, -1);
    EXPECT_EQ(a, b);
    EXPECT_LE(a.size(), 5U);
}

/**
 * Finite-difference gradient check through the whole model. Perturbs
 * a sample of coordinates of every parameter and compares the
 * numerical derivative with the analytic gradient.
 */
class GradCheck : public ::testing::TestWithParam<int> {};

TEST_P(GradCheck, AnalyticMatchesNumeric)
{
    const bool llama = GetParam() == 0;
    ModelConfig cfg = llama ? testLlamaConfig() : testBertConfig();
    TransformerModel m(cfg, 21);
    Rng rng(15);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    std::vector<int> targets = shiftTargets(toks);

    Gradients grads(m.parameters());
    m.lossAndGrad(toks, targets, grads);

    int checked = 0, failed = 0;
    for (Parameter *p : m.parameters()) {
        // Sample up to 4 coordinates per parameter.
        for (int s = 0; s < 4; ++s) {
            const auto idx = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(p->value.size())));
            const float orig = p->value[idx];
            const float eps = 1e-2F;
            p->value[idx] = orig + eps;
            const double up = m.loss(toks, targets);
            p->value[idx] = orig - eps;
            const double down = m.loss(toks, targets);
            p->value[idx] = orig;
            const double numeric = (up - down) / (2.0 * eps);
            const double analytic = grads.of(*p)[idx];
            const double scale =
                std::max({std::abs(numeric), std::abs(analytic), 1e-4});
            ++checked;
            if (std::abs(numeric - analytic) / scale > 0.08)
                ++failed;
        }
    }
    // Allow a small fraction of float32 finite-difference outliers.
    EXPECT_LE(failed, checked / 20)
        << failed << "/" << checked << " gradient checks failed";
}

INSTANTIATE_TEST_SUITE_P(Archs, GradCheck, ::testing::Values(0, 1));

/** Gradient check through factorized linears (fine-tuning path). */
TEST(GradCheckFactorized, AnalyticMatchesNumeric)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 22);
    ASSERT_TRUE(m.linear(0, WeightKind::Gate).factorize(2).ok());
    ASSERT_TRUE(m.linear(1, WeightKind::Query).factorize(2).ok());
    Rng rng(16);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    std::vector<int> targets = shiftTargets(toks);

    Gradients grads(m.parameters());
    m.lossAndGrad(toks, targets, grads);

    int checked = 0, failed = 0;
    for (Parameter *p : m.parameters()) {
        if (p->name.find(".u1") == std::string::npos
            && p->name.find(".u2") == std::string::npos
            && p->name.find(".core") == std::string::npos)
            continue;
        for (int s = 0; s < 6; ++s) {
            const auto idx = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(p->value.size())));
            const float orig = p->value[idx];
            const float eps = 1e-2F;
            p->value[idx] = orig + eps;
            const double up = m.loss(toks, targets);
            p->value[idx] = orig - eps;
            const double down = m.loss(toks, targets);
            p->value[idx] = orig;
            const double numeric = (up - down) / (2.0 * eps);
            const double analytic = grads.of(*p)[idx];
            const double scale =
                std::max({std::abs(numeric), std::abs(analytic), 1e-4});
            ++checked;
            if (std::abs(numeric - analytic) / scale > 0.1)
                ++failed;
        }
    }
    EXPECT_GT(checked, 0);
    EXPECT_LE(failed, checked / 10);
}

} // namespace
} // namespace lrd
