/**
 * @file
 * Tests for InferenceSession lifecycle and evaluator options:
 * restart and reuse, copy independence, truncation (the shared-context
 * scoring trick), overflow handling, stop tokens, and length
 * normalization.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "eval/evaluator.h"
#include "tensor/ops.h"
#include "train/world.h"

namespace lrd {
namespace {

ModelConfig
cfgWithVocab(int vocab)
{
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = vocab;
    cfg.maxSeq = 24;
    return cfg;
}

TEST(Session, ResetRestartsAtPositionZero)
{
    TransformerModel m(cfgWithVocab(32), 1);
    InferenceSession s(m);
    Tensor first = s.append({1, 2, 3});
    EXPECT_EQ(s.length(), 3);
    s.truncate(0);
    EXPECT_EQ(s.length(), 0);
    Tensor again = s.append({1, 2, 3});
    ASSERT_EQ(first.size(), again.size());
    EXPECT_EQ(0, std::memcmp(first.data(), again.data(),
                             sizeof(float) * first.size()));
}

TEST(Session, CopyDivergesIndependently)
{
    TransformerModel m(cfgWithVocab(32), 2);
    InferenceSession a(m);
    (void)a.append({1, 2, 3});
    InferenceSession b = a; // copy shares nothing mutable
    Tensor la = a.append({4});
    Tensor lb = b.append({5});
    EXPECT_EQ(a.length(), 4);
    EXPECT_EQ(b.length(), 4);
    // Different continuations must give different logits.
    EXPECT_GT(relativeError(la, lb), 1e-6);
    // And each must match a fresh full-context run.
    InferenceSession fresh(m);
    Tensor want = fresh.append({1, 2, 3, 4});
    for (int64_t j = 0; j < want.dim(0); ++j)
        EXPECT_NEAR(la[j], want[j], 2e-3);
}

TEST(Session, TruncatedSessionMatchesACopyBitwise)
{
    TransformerModel m(cfgWithVocab(32), 6);
    InferenceSession s(m);
    (void)s.append({1, 2, 3});
    InferenceSession copy = s;
    (void)s.append({4});
    s.truncate(3);
    EXPECT_EQ(s.length(), 3);
    const Tensor rewound = s.append({5});
    const Tensor copied = copy.append({5});
    ASSERT_EQ(rewound.size(), copied.size());
    EXPECT_EQ(0, std::memcmp(rewound.data(), copied.data(),
                             sizeof(float) * rewound.size()));

    // One-token appends grow the storage through every reallocation up
    // to maxSeq; rewound, s keeps that storage, while the copy taken
    // before the growth reallocates as it re-appends past its 4 rows.
    const int64_t maxSeq = m.config().maxSeq;
    while (s.length() < maxSeq)
        (void)s.append({static_cast<int>(s.length() % 29) + 1});
    s.truncate(4);
    for (int64_t pos = 4; pos < maxSeq; ++pos) {
        const int token = static_cast<int>((pos * 7) % 31) + 1;
        const Tensor grown = s.append({token});
        const Tensor fresh = copy.append({token});
        ASSERT_EQ(0, std::memcmp(grown.data(), fresh.data(),
                                 sizeof(float) * grown.size()))
            << "position " << pos;
    }
}

TEST(Session, TruncateOutsideTheSessionThrows)
{
    TransformerModel m(cfgWithVocab(32), 7);
    InferenceSession s(m);
    (void)s.append({1, 2});
    EXPECT_THROW(s.truncate(-1), std::runtime_error);
    EXPECT_THROW(s.truncate(s.length() + 1), std::runtime_error);
    EXPECT_EQ(s.length(), 2);
}

TEST(Session, OverflowingMaxSeqThrows)
{
    ModelConfig cfg = cfgWithVocab(32);
    TransformerModel m(cfg, 3);
    InferenceSession s(m);
    TokenSeq fill(static_cast<size_t>(cfg.maxSeq), 1);
    (void)s.append(fill);
    EXPECT_THROW(s.append({1}), std::runtime_error);
}

TEST(Session, EmptyAppendThrows)
{
    TransformerModel m(cfgWithVocab(32), 4);
    InferenceSession s(m);
    EXPECT_THROW(s.append({}), std::runtime_error);
}

TEST(Session, BertModelsAreRejected)
{
    TransformerModel m(testBertConfig(), 5);
    EXPECT_THROW(InferenceSession{m}, std::runtime_error);
}

TEST(Generate, StopsAtStopToken)
{
    TransformerModel m(cfgWithVocab(32), 6);
    // Find what the model would emit first, then use it as the stop
    // token: the result must be empty.
    const TokenSeq unbounded = greedyGenerate(m, {1, 2}, 1, -1);
    ASSERT_EQ(unbounded.size(), 1U);
    const TokenSeq stopped = greedyGenerate(m, {1, 2}, 8, unbounded[0]);
    EXPECT_TRUE(stopped.empty());
}

TEST(Generate, RespectsMaxSeqBound)
{
    ModelConfig cfg = cfgWithVocab(32);
    TransformerModel m(cfg, 7);
    const TokenSeq out = greedyGenerate(m, {1, 2, 3}, 1000, -1);
    EXPECT_LE(static_cast<int64_t>(out.size() + 3), cfg.maxSeq);
}

TEST(EvalOptions, LengthNormalizationChangesScoring)
{
    // A task whose choices have very different lengths: without
    // normalization longer choices accumulate more negative log
    // probability and are disfavored; with normalization the
    // per-token average decides. Verify the two scoring modes can
    // disagree on at least one random model/task combination.
    const WorldSpec spec = [] {
        WorldSpec s;
        s.numEntities = 8;
        s.numColors = 4;
        s.numCategories = 4;
        s.numPlaces = 4;
        s.numNumbers = 12;
        s.numVerbs = 2;
        s.numPatternSymbols = 5;
        return s;
    }();
    World world(spec);
    ModelConfig cfg = cfgWithVocab(world.vocabSize());
    bool disagreed = false;
    for (uint64_t seed = 0; seed < 10 && !disagreed; ++seed) {
        TransformerModel m(cfg, 100 + seed);
        Evaluator plain(m, world, EvalOptions{1, 1, false});
        Evaluator norm(m, world, EvalOptions{1, 1, true});
        McTask task;
        task.context = {world.bosToken(), world.entityToken(0)};
        task.choices = {{world.colorToken(0)},
                        {world.colorToken(1), world.colorToken(2),
                         world.colorToken(3)}};
        task.gold = 0;
        disagreed = plain.pickChoiceCausal(task)
                    != norm.pickChoiceCausal(task);
    }
    EXPECT_TRUE(disagreed);
}

TEST(EvalOptions, SeedChangesTasksButNotProtocol)
{
    WorldSpec spec;
    spec.numEntities = 10;
    spec.numColors = 4;
    spec.numCategories = 4;
    spec.numPlaces = 4;
    spec.numNumbers = 12;
    spec.numVerbs = 2;
    spec.numPatternSymbols = 5;
    World world(spec);
    ModelConfig cfg = cfgWithVocab(world.vocabSize());
    TransformerModel m(cfg, 9);
    Evaluator a(m, world, EvalOptions{30, 1, false});
    Evaluator b(m, world, EvalOptions{30, 2, false});
    const EvalResult ra = a.run(BenchmarkKind::ArcEasy);
    const EvalResult rb = b.run(BenchmarkKind::ArcEasy);
    EXPECT_EQ(ra.numTasks, rb.numTasks);
    // Accuracy on an untrained model is near chance for both seeds.
    EXPECT_NEAR(ra.accuracy, rb.accuracy, 0.35);
}

} // namespace
} // namespace lrd
