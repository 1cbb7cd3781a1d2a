/**
 * @file
 * Tests for the eval module: benchmark generator invariants (gold
 * correctness, determinism, choice structure) and evaluator behavior
 * (oracle and anti-oracle accuracy, KV-cache vs full-forward
 * agreement, PLL scoring).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/evaluator.h"
#include "tensor/ops.h"
#include "train/world.h"

namespace lrd {
namespace {

WorldSpec
smallSpec()
{
    WorldSpec s;
    s.numEntities = 12;
    s.numColors = 5;
    s.numCategories = 5;
    s.numPlaces = 5;
    s.numNumbers = 14;
    s.numVerbs = 3;
    s.numPatternSymbols = 6;
    s.seed = 77;
    return s;
}

const World &
smallWorld()
{
    static World w(smallSpec());
    return w;
}

TEST(Benchmarks, AllKindsListedInPaperOrder)
{
    const auto &all = allBenchmarks();
    ASSERT_EQ(all.size(), 7U);
    EXPECT_EQ(benchmarkName(all.front()), "ARC Easy");
    EXPECT_EQ(benchmarkName(all.back()), "GSM8K");
}

TEST(Benchmarks, GenerationIsDeterministicInSeed)
{
    const auto a =
        makeMcTasks(BenchmarkKind::Mmlu, smallWorld(), 20, 123);
    const auto b =
        makeMcTasks(BenchmarkKind::Mmlu, smallWorld(), 20, 123);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].context, b[i].context);
        EXPECT_EQ(a[i].gold, b[i].gold);
        ASSERT_EQ(a[i].choices.size(), b[i].choices.size());
        for (size_t c = 0; c < a[i].choices.size(); ++c)
            EXPECT_EQ(a[i].choices[c], b[i].choices[c]);
    }
    const auto c =
        makeMcTasks(BenchmarkKind::Mmlu, smallWorld(), 20, 124);
    bool anyDiff = false;
    for (size_t i = 0; i < a.size(); ++i)
        anyDiff |= a[i].context != c[i].context;
    EXPECT_TRUE(anyDiff);
}

TEST(Benchmarks, StructureInvariants)
{
    const World &w = smallWorld();
    for (BenchmarkKind kind : allBenchmarks()) {
        if (kind == BenchmarkKind::Gsm8k)
            continue;
        const auto tasks = makeMcTasks(kind, w, 30, 7);
        ASSERT_EQ(tasks.size(), 30U);
        // Two choices for WinoGrande, four for the rest.
        const size_t numChoices = kind == BenchmarkKind::WinoGrande ? 2 : 4;
        for (const McTask &t : tasks) {
            EXPECT_EQ(t.choices.size(), numChoices) << benchmarkName(kind);
            ASSERT_GE(t.gold, 0);
            ASSERT_LT(t.gold, static_cast<int>(t.choices.size()));
            EXPECT_EQ(t.context.front(), w.bosToken());
            // Choices must be unique.
            for (size_t i = 0; i < t.choices.size(); ++i)
                for (size_t j = i + 1; j < t.choices.size(); ++j)
                    EXPECT_NE(t.choices[i], t.choices[j])
                        << benchmarkName(kind);
        }
    }
}

TEST(Benchmarks, GoldAnswersMatchGroundTruth)
{
    const World &w = smallWorld();
    // TruthfulQA gold must be the *true* color, with the myth among
    // the distractors.
    const auto tq =
        makeMcTasks(BenchmarkKind::TruthfulQa, w, 25, 11);
    for (const McTask &t : tq) {
        const int entityTok = t.context[1];
        int entity = -1;
        for (int e = 0; e < w.spec().numEntities; ++e)
            if (w.entityToken(e) == entityTok)
                entity = e;
        ASSERT_GE(entity, 0);
        EXPECT_EQ(t.choices[static_cast<size_t>(t.gold)][0],
                  w.colorToken(w.colorOf(entity)));
        bool hasMyth = false;
        for (const TokenSeq &c : t.choices)
            hasMyth |= c[0] == w.colorToken(w.mythColorOf(entity));
        EXPECT_TRUE(hasMyth);
    }
    // WinoGrande gold must match the entity's gender.
    const auto wg =
        makeMcTasks(BenchmarkKind::WinoGrande, w, 25, 13);
    for (const McTask &t : wg) {
        const int entityTok = t.context[1];
        for (int e = 0; e < w.spec().numEntities; ++e) {
            if (w.entityToken(e) == entityTok) {
                EXPECT_EQ(t.gold, w.genderOf(e));
            }
        }
    }
}

TEST(Benchmarks, Gsm8kExpectedAnswersAreCorrectSums)
{
    const World &w = smallWorld();
    const auto tasks = makeGsm8kTasks(w, 30, 17);
    for (const GenTask &t : tasks) {
        ASSERT_EQ(t.expected.size(), 1U);
        // Parse the query tail: ... EQUALS is last; the numbers
        // before it separated by PLUS.
        ASSERT_GE(t.prompt.size(), 5U);
        EXPECT_EQ(t.prompt.back(), w.equalsToken());
        int sum = 0;
        // Walk backwards collecting number tokens until the <sep> of
        // the last few-shot example.
        for (auto it = t.prompt.rbegin() + 1; it != t.prompt.rend();
             ++it) {
            if (*it == w.sepToken())
                break;
            if (*it == w.plusToken())
                continue;
            sum += *it - w.numberToken(0);
        }
        EXPECT_EQ(t.expected[0], w.numberToken(sum));
    }
}

TEST(Benchmarks, McTasksForGsm8kAreFatal)
{
    EXPECT_THROW(makeMcTasks(BenchmarkKind::Gsm8k, smallWorld(), 5, 1),
                 std::runtime_error);
}

/**
 * Oracle model check: a model whose LM head strongly prefers the gold
 * token given the context would score 100%; an untrained random model
 * must land near chance. We verify the evaluator near chance with an
 * untrained model (binomial tolerance).
 */
TEST(Evaluator, UntrainedModelScoresNearChance)
{
    const World &w = smallWorld();
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = w.vocabSize();
    cfg.maxSeq = 64;
    TransformerModel model(cfg, 12345);
    Evaluator ev(model, w, EvalOptions{120, 5, false});
    const EvalResult arc = ev.run(BenchmarkKind::ArcChallenge);
    EXPECT_GT(arc.accuracy, 0.10);
    EXPECT_LT(arc.accuracy, 0.45);
    const EvalResult wino = ev.run(BenchmarkKind::WinoGrande);
    EXPECT_GT(wino.accuracy, 0.30);
    EXPECT_LT(wino.accuracy, 0.70);
}

TEST(Evaluator, CausalChoiceMatchesExplicitScoring)
{
    // pickChoiceCausal must agree with brute-force scoreContinuation.
    const World &w = smallWorld();
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = w.vocabSize();
    cfg.maxSeq = 64;
    TransformerModel model(cfg, 777);
    Evaluator ev(model, w, EvalOptions{1, 5, false});
    const auto tasks =
        makeMcTasks(BenchmarkKind::HellaSwag, w, 10, 21);
    for (const McTask &t : tasks) {
        double best = -1e30;
        int want = -1;
        for (size_t c = 0; c < t.choices.size(); ++c) {
            const double ll =
                scoreContinuation(model, t.context, t.choices[c]);
            if (ll > best) {
                best = ll;
                want = static_cast<int>(c);
            }
        }
        EXPECT_EQ(ev.pickChoiceCausal(t), want);
    }
}

TEST(Evaluator, BertPathRunsAndIsDeterministic)
{
    const World &w = smallWorld();
    ModelConfig cfg = testBertConfig();
    cfg.vocabSize = w.vocabSize();
    cfg.maxSeq = 64;
    TransformerModel model(cfg, 31);
    Evaluator ev(model, w, EvalOptions{15, 5, false});
    const EvalResult a = ev.run(BenchmarkKind::ArcEasy);
    const EvalResult b = ev.run(BenchmarkKind::ArcEasy);
    EXPECT_EQ(a.numCorrect, b.numCorrect);
    EXPECT_EQ(a.numTasks, 15);
    EXPECT_GE(a.numCorrect, 0);
    EXPECT_LE(a.numCorrect, a.numTasks);
}

TEST(Evaluator, RunAllCoversEveryBenchmark)
{
    const World &w = smallWorld();
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = w.vocabSize();
    cfg.maxSeq = 64;
    TransformerModel model(cfg, 99);
    Evaluator ev(model, w, EvalOptions{5, 5, false});
    const auto all = ev.runAll();
    EXPECT_EQ(all.size(), allBenchmarks().size());
    const double agg = ev.aggregateAccuracy();
    EXPECT_GE(agg, 0.0);
    EXPECT_LE(agg, 1.0);
}

TEST(Evaluator, AccuracyCountsAreConsistent)
{
    const World &w = smallWorld();
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = w.vocabSize();
    cfg.maxSeq = 64;
    TransformerModel model(cfg, 55);
    Evaluator ev(model, w, EvalOptions{40, 5, false});
    const EvalResult r = ev.run(BenchmarkKind::Mmlu);
    EXPECT_EQ(r.numTasks, 40);
    EXPECT_NEAR(r.accuracy,
                static_cast<double>(r.numCorrect) / r.numTasks, 1e-12);
}

} // namespace
} // namespace lrd
