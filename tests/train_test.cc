/**
 * @file
 * Tests for the train module: World vocabulary layout and ground
 * truth, CorpusGenerator sentence structure, AdamW dynamics, the
 * LR schedule, and a short end-to-end training smoke run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "train/adam.h"
#include "train/corpus.h"
#include "train/trainer.h"
#include "train/world.h"

namespace lrd {
namespace {

WorldSpec
smallSpec()
{
    WorldSpec s;
    s.numEntities = 10;
    s.numColors = 4;
    s.numCategories = 4;
    s.numPlaces = 4;
    s.numNumbers = 12;
    s.numVerbs = 2;
    s.numPatternSymbols = 5;
    s.seed = 42;
    return s;
}

TEST(World, TokenRangesAreDisjointAndCoverVocab)
{
    World w(smallSpec());
    std::set<int> seen;
    auto check = [&](int tok) {
        ASSERT_GE(tok, 0);
        ASSERT_LT(tok, w.vocabSize());
        ASSERT_TRUE(seen.insert(tok).second)
            << "token " << tok << " assigned twice";
    };
    // 0 (padding) and 10 are reserved ids that nothing emits.
    for (int t : {0, w.bosToken(), w.sepToken(), w.maskToken(),
                  w.hasColorToken(), w.isAToken(), w.livesInToken(),
                  w.plusToken(), w.equalsToken(), w.rumorToken(), 10})
        check(t);
    const WorldSpec &s = w.spec();
    for (int i = 0; i < s.numEntities; ++i)
        check(w.entityToken(i));
    for (int i = 0; i < s.numColors; ++i)
        check(w.colorToken(i));
    for (int i = 0; i < s.numCategories; ++i)
        check(w.categoryToken(i));
    for (int i = 0; i < s.numPlaces; ++i)
        check(w.placeToken(i));
    for (int i = 0; i < s.numNumbers; ++i)
        check(w.numberToken(i));
    for (int i = 0; i < s.numVerbs; ++i)
        check(w.verbToken(i));
    check(w.pronounToken(0));
    check(w.pronounToken(1));
    for (int i = 0; i < s.numPatternSymbols; ++i)
        check(w.patternToken(i));
    EXPECT_EQ(static_cast<int>(seen.size()), w.vocabSize());
}

TEST(World, GroundTruthIsDeterministicAndStable)
{
    World a(smallSpec());
    World b(smallSpec());
    for (int e = 0; e < a.spec().numEntities; ++e) {
        EXPECT_EQ(a.colorOf(e), b.colorOf(e));
        EXPECT_EQ(a.categoryOf(e), b.categoryOf(e));
        EXPECT_EQ(a.placeOf(e), b.placeOf(e));
        EXPECT_EQ(a.genderOf(e), b.genderOf(e));
        EXPECT_EQ(a.mythColorOf(e), b.mythColorOf(e));
        EXPECT_EQ(a.mythDominant(e), b.mythDominant(e));
    }
}

TEST(World, MythColorAlwaysDiffersFromTruth)
{
    World w(smallSpec());
    for (int e = 0; e < w.spec().numEntities; ++e)
        EXPECT_NE(w.colorOf(e), w.mythColorOf(e)) << "entity " << e;
}

TEST(World, ZipfSamplingFavorsHeadEntities)
{
    World w(smallSpec());
    Rng rng(5);
    std::vector<int> counts(static_cast<size_t>(w.spec().numEntities), 0);
    for (int i = 0; i < 20000; ++i)
        ++counts[static_cast<size_t>(w.sampleEntityZipf(rng))];
    EXPECT_GT(counts[0], counts[4]);
    EXPECT_GT(counts[0], 3 * counts[9]);
}

TEST(World, BadIndicesAreFatal)
{
    World w(smallSpec());
    EXPECT_THROW(w.entityToken(-1), std::runtime_error);
    EXPECT_THROW(w.entityToken(w.spec().numEntities), std::runtime_error);
    EXPECT_THROW(w.colorOf(w.spec().numEntities), std::runtime_error);
    EXPECT_THROW(w.pronounToken(2), std::runtime_error);
}

TEST(Corpus, FactSentencesEncodeGroundTruth)
{
    World w(smallSpec());
    CorpusGenerator gen(w, 1);
    const TokenSeq s = gen.categoryFact(3);
    ASSERT_EQ(s.size(), 4U);
    EXPECT_EQ(s[0], w.entityToken(3));
    EXPECT_EQ(s[1], w.isAToken());
    EXPECT_EQ(s[2], w.categoryToken(w.categoryOf(3)));
    EXPECT_EQ(s[3], w.sepToken());

    const TokenSeq r = gen.rumorSentence(3);
    ASSERT_EQ(r.size(), 5U);
    EXPECT_EQ(r[0], w.rumorToken());
    EXPECT_EQ(r[3], w.colorToken(w.mythColorOf(3)));
}

TEST(Corpus, AdditionFactsAreCorrect)
{
    World w(smallSpec());
    CorpusGenerator gen(w, 2);
    const TokenSeq s = gen.additionFact(3, 5);
    EXPECT_EQ(s[4], w.numberToken(8));
    EXPECT_THROW(gen.additionFact(10, 10), std::runtime_error);
    const TokenSeq c = gen.additionChain(2, 3, 4);
    EXPECT_EQ(c[6], w.numberToken(9));
}

TEST(Corpus, PatternFamiliesProduceExpectedShapes)
{
    World w(smallSpec());
    CorpusGenerator gen(w, 3);
    const TokenSeq alt =
        gen.patternSentence(PatternFamily::Alternation, 0, 1);
    ASSERT_EQ(alt.size(), 9U);
    EXPECT_EQ(alt[0], w.patternToken(0));
    EXPECT_EQ(alt[1], w.patternToken(1));
    EXPECT_EQ(alt[6], w.patternToken(0));

    const TokenSeq rep =
        gen.patternSentence(PatternFamily::Repetition, 2, 0);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(rep[static_cast<size_t>(i)], w.patternToken(2));

    const TokenSeq cnt = gen.patternSentence(PatternFamily::Counting, 1, 0);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(cnt[static_cast<size_t>(i)],
                  cnt[static_cast<size_t>(i - 1)] + 1);

    const TokenSeq dwn =
        gen.patternSentence(PatternFamily::Countdown, 1, 0);
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(dwn[static_cast<size_t>(i)],
                  dwn[static_cast<size_t>(i - 1)] - 1);

    const TokenSeq p3 =
        gen.patternSentence(PatternFamily::PeriodThree, 0, 1);
    EXPECT_EQ(p3[0], w.patternToken(0));
    EXPECT_EQ(p3[1], w.patternToken(0));
    EXPECT_EQ(p3[2], w.patternToken(1));
    EXPECT_EQ(p3[5], w.patternToken(1));
}

TEST(Corpus, MythDominanceShapesSampledColorSentences)
{
    World w(smallSpec());
    CorpusGenerator gen(w, 4);
    Rng rng(9);
    // Find one myth-dominant and one truth-dominant entity.
    int mythE = -1, truthE = -1;
    for (int e = 0; e < w.spec().numEntities; ++e) {
        if (w.mythDominant(e) && mythE < 0)
            mythE = e;
        if (!w.mythDominant(e) && truthE < 0)
            truthE = e;
    }
    auto mythFraction = [&](int entity) {
        int myth = 0;
        const int n = 2000;
        for (int i = 0; i < n; ++i) {
            const TokenSeq s = gen.colorSentenceSampled(entity, rng);
            myth += s[2] == w.colorToken(w.mythColorOf(entity));
        }
        return static_cast<double>(myth) / n;
    };
    if (mythE >= 0) {
        EXPECT_GT(mythFraction(mythE), 0.55);
    }
    if (truthE >= 0) {
        EXPECT_LT(mythFraction(truthE), 0.25);
    }
}

TEST(Corpus, DocumentsStartWithBosAndHaveExactLength)
{
    World w(smallSpec());
    CorpusGenerator gen(w, 5);
    for (int len : {8, 32, 64}) {
        const TokenSeq d = gen.document(len);
        EXPECT_EQ(static_cast<int>(d.size()), len);
        EXPECT_EQ(d[0], w.bosToken());
        for (int t : d) {
            EXPECT_GE(t, 0);
            EXPECT_LT(t, w.vocabSize());
        }
    }
}

TEST(Corpus, SentenceMixtureCoversAllKinds)
{
    World w(smallSpec());
    CorpusGenerator gen(w, 6);
    bool sawRumor = false, sawPlus = false, sawPattern = false,
         sawPronoun = false;
    for (int i = 0; i < 500; ++i) {
        const TokenSeq s = gen.sentence();
        for (int t : s) {
            sawRumor |= t == w.rumorToken();
            sawPlus |= t == w.plusToken();
            sawPattern |= t >= w.patternToken(0);
            sawPronoun |=
                t == w.pronounToken(0) || t == w.pronounToken(1);
        }
    }
    EXPECT_TRUE(sawRumor);
    EXPECT_TRUE(sawPlus);
    EXPECT_TRUE(sawPattern);
    EXPECT_TRUE(sawPronoun);
}

TEST(Adam, ConvergesOnQuadratic)
{
    // Minimize ||x - c||^2 with gradients fed manually.
    Parameter p("x", Tensor({4}));
    const std::vector<float> target = {1.0F, -2.0F, 0.5F, 3.0F};
    AdamOptions opts;
    opts.lr = 0.05;
    opts.weightDecay = 0.0;
    AdamW adam({&p}, opts);
    Gradients grads({&p});
    for (int step = 0; step < 400; ++step) {
        for (int64_t i = 0; i < 4; ++i)
            grads.of(p)[i] =
                2.0F * (p.value[i] - target[static_cast<size_t>(i)]);
        adam.step(grads);
    }
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_NEAR(p.value[i], target[static_cast<size_t>(i)], 0.05);
}

TEST(Adam, ClippingBoundsUpdateMagnitude)
{
    Parameter p("x", Tensor({1}));
    AdamOptions opts;
    opts.clipNorm = 1.0;
    AdamW adam({&p}, opts);
    Gradients grads({&p});
    grads.of(p)[0] = 1e6F;
    adam.step(grads);
    EXPECT_LT(std::abs(p.value[0]), 0.1F); // one lr-scale step at most
}

TEST(Adam, EmptyParamsAreFatal)
{
    EXPECT_THROW(AdamW({}, AdamOptions{}), std::runtime_error);
}

TEST(Schedule, WarmupThenDecayToMinScale)
{
    EXPECT_NEAR(cosineSchedule(0, 10, 100), 0.1, 1e-9);
    EXPECT_NEAR(cosineSchedule(9, 10, 100), 1.0, 1e-9);
    EXPECT_NEAR(cosineSchedule(10, 10, 100), 1.0, 1e-6);
    EXPECT_NEAR(cosineSchedule(100, 10, 100), 0.1, 1e-6);
    // Monotone decreasing after warmup.
    double prev = 2.0;
    for (int64_t s = 10; s <= 100; s += 10) {
        const double v = cosineSchedule(s, 10, 100);
        EXPECT_LE(v, prev + 1e-9);
        prev = v;
    }
}

TEST(Trainer, ShortRunReducesLossForBothArchs)
{
    World w(smallSpec());
    for (bool llama : {true, false}) {
        ModelConfig cfg = llama ? testLlamaConfig() : testBertConfig();
        cfg.vocabSize = w.vocabSize();
        cfg.maxSeq = 32;
        TransformerModel model(cfg, 5);
        TrainOptions t;
        t.steps = 25;
        t.batchSeqs = 2;
        t.seqLen = 24;
        t.warmupSteps = 5;
        t.logEvery = 0;
        Trainer trainer(model, w, t);
        const double before = trainer.evalLoss(5);
        trainer.run();
        const double after = trainer.evalLoss(5);
        EXPECT_LT(after, before - 0.2) << (llama ? "llama" : "bert");
    }
}

TEST(Trainer, RejectsOverlongSeqAndForeignVocab)
{
    World w(smallSpec());
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = w.vocabSize();
    TransformerModel model(cfg, 5);
    TrainOptions t;
    t.seqLen = cfg.maxSeq + 1;
    EXPECT_THROW(Trainer(model, w, t), std::runtime_error);

    ModelConfig tiny = testLlamaConfig(); // vocab 32 < world vocab
    TransformerModel m2(tiny, 5);
    TrainOptions t2;
    t2.seqLen = 16;
    EXPECT_THROW(Trainer(m2, w, t2), std::runtime_error);
}

} // namespace
} // namespace lrd
