/**
 * @file
 * Shared fixture for the Definition-1 sweep tests: a small benchmark
 * world, a 4-layer decoder sized to it, a briefly-trained checkpoint,
 * and a bitwise comparison of candidate records.
 */

#ifndef LRD_TESTS_SWEEP_FIXTURE_H
#define LRD_TESTS_SWEEP_FIXTURE_H

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dse/optimizer.h"
#include "model/transformer.h"
#include "train/trainer.h"

namespace lrd {
namespace sweepfix {

inline WorldSpec
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
    s.seed = 7;
    return s;
}

inline const World &
smallWorld()
{
    static World w(smallSpec());
    return w;
}

inline ModelConfig
smallConfig()
{
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = smallWorld().vocabSize();
    cfg.dModel = 32;
    cfg.nHeads = 4;
    cfg.dFf = 64;
    cfg.nLayers = 4;
    cfg.maxSeq = 48;
    return cfg;
}

/** A briefly-trained small decoder shared by the DSE tests. */
inline const std::vector<uint8_t> &
trainedBytes()
{
    static const std::vector<uint8_t> bytes = [] {
        TransformerModel model(smallConfig(), 17);
        TrainOptions t;
        t.steps = 60;
        t.batchSeqs = 4;
        t.seqLen = 40;
        t.warmupSteps = 10;
        t.logEvery = 0;
        Trainer trainer(model, smallWorld(), t);
        trainer.run();
        return model.serialize();
    }();
    return bytes;
}

inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Records agree in config, outcome and every metric's f64 bits. */
inline void
expectSameRecords(const std::vector<CandidateRecord> &a,
                  const std::vector<CandidateRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].config.describe(), b[i].config.describe()) << i;
        EXPECT_TRUE(sameBits(a[i].accuracy, b[i].accuracy)) << i;
        EXPECT_TRUE(sameBits(a[i].latencySec, b[i].latencySec)) << i;
        EXPECT_TRUE(sameBits(a[i].energyJ, b[i].energyJ)) << i;
        EXPECT_TRUE(sameBits(a[i].edp, b[i].edp)) << i;
        EXPECT_TRUE(sameBits(a[i].reduction, b[i].reduction)) << i;
        EXPECT_EQ(a[i].feasible, b[i].feasible) << i;
        EXPECT_EQ(a[i].failed, b[i].failed) << i;
    }
}

} // namespace sweepfix
} // namespace lrd

#endif // LRD_TESTS_SWEEP_FIXTURE_H
