/**
 * @file
 * Tests for the design-space module: gamma validity (Prop 3.1),
 * parameter-reduction arithmetic, Theorem 3.2 vs brute-force
 * enumeration, Table 4 consistency against the paper's own reduction
 * percentages, the spread-schedule generator, and the Definition-1
 * candidate grid.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "model/decomp_config.h"
#include "dse/design_space.h"
#include "dse/optimizer.h"
#include "dse/schedules.h"
#include "sweep_fixture.h"
#include "util/logging.h"
#include "util/rng.h"

namespace lrd {
namespace {

TEST(DecompConfig, IdentityIsValidEverywhere)
{
    const DecompConfig id = DecompConfig::identity();
    for (const ModelConfig &cfg :
         {testLlamaConfig(), testBertConfig(), llama2_7bConfig()}) {
        EXPECT_TRUE(id.valid(cfg));
        EXPECT_DOUBLE_EQ(id.parameterReduction(cfg), 0.0);
    }
}

TEST(DecompConfig, ValidityCatchesEachViolation)
{
    const ModelConfig cfg = testLlamaConfig(); // 2 layers, d=16
    std::string why;

    DecompConfig badLayer = DecompConfig::allTensors(cfg, {0, 5});
    EXPECT_FALSE(badLayer.valid(cfg, &why));
    EXPECT_NE(why.find("layer 5"), std::string::npos);

    DecompConfig dupLayer = DecompConfig::allTensors(cfg, {1, 1});
    EXPECT_FALSE(dupLayer.valid(cfg, &why));

    DecompConfig badTensor =
        DecompConfig::oneTensor(WeightKind::Intermediate, {0});
    EXPECT_FALSE(badTensor.valid(cfg, &why));
    EXPECT_NE(why.find("Wint"), std::string::npos);

    DecompConfig badRank = DecompConfig::allTensors(cfg, {0}, 17);
    EXPECT_FALSE(badRank.valid(cfg, &why)); // d = 16 caps the rank

    DecompConfig zeroRank = DecompConfig::allTensors(cfg, {0}, 0);
    EXPECT_FALSE(zeroRank.valid(cfg, &why));

    DecompConfig halfEmpty;
    halfEmpty.layers = {0};
    EXPECT_FALSE(halfEmpty.valid(cfg, &why));

    DecompConfig strayOverride = DecompConfig::allTensors(cfg, {0});
    strayOverride.rankOverrides[{1, static_cast<int>(WeightKind::Query)}] =
        1;
    EXPECT_FALSE(strayOverride.valid(cfg, &why));
    EXPECT_NE(why.find("override"), std::string::npos);
}

TEST(DecompConfig, PrunedRanksFollowDefinition3)
{
    const ModelConfig cfg = testLlamaConfig();
    DecompConfig c = DecompConfig::allTensors(cfg, {0, 1}, 2);
    c.rankOverrides[{1, static_cast<int>(WeightKind::Gate)}] = 3;
    const auto prs = c.prunedRanks();
    // |PR| = |layers| x |tensors|.
    EXPECT_EQ(prs.size(), 2U * 7U);
    for (const PrunedRankEntry &e : prs) {
        if (e.layer == 1 && e.kind == WeightKind::Gate)
            EXPECT_EQ(e.rank, 3);
        else
            EXPECT_EQ(e.rank, 2);
    }
}

/** A random small model config of either architecture, with nKvHeads
 *  0 (full heads) or a proper divisor of nHeads. */
ModelConfig
randomModelConfig(Rng &rng)
{
    ModelConfig cfg =
        rng.bernoulli(0.5) ? testLlamaConfig() : testBertConfig();
    cfg.nHeads = rng.bernoulli(0.5) ? 2 : 4;
    cfg.dModel = cfg.nHeads * (rng.bernoulli(0.5) ? 2 : 4);
    std::vector<int64_t> kvChoices = {0};
    for (int64_t d = 1; d < cfg.nHeads; ++d)
        if (cfg.nHeads % d == 0)
            kvChoices.push_back(d);
    cfg.nKvHeads = kvChoices[rng.uniformInt(kvChoices.size())];
    cfg.nLayers = 1 + static_cast<int64_t>(rng.uniformInt(3));
    cfg.dFf = 8 + static_cast<int64_t>(rng.uniformInt(17));
    cfg.vocabSize = 16 + static_cast<int64_t>(rng.uniformInt(17));
    cfg.maxSeq = 8 + static_cast<int64_t>(rng.uniformInt(9));
    cfg.validate();
    return cfg;
}

/** A random valid gamma: non-empty layer and tensor subsets, a uniform
 *  rank every selected tensor admits, and sometimes rank overrides. */
DecompConfig
randomDecompConfig(const ModelConfig &cfg, Rng &rng)
{
    DecompConfig gamma;
    while (gamma.layers.empty())
        for (int l = 0; l < cfg.nLayers; ++l)
            if (rng.bernoulli(0.5))
                gamma.layers.push_back(l);
    const std::vector<WeightKind> kinds = decomposableKinds(cfg.arch);
    while (gamma.tensors.empty())
        for (WeightKind k : kinds)
            if (rng.bernoulli(0.5))
                gamma.tensors.push_back(k);
    const auto maxRank = [&](WeightKind k) {
        const auto shape = cfg.weightShape(k);
        return std::min(shape[0], shape[1]);
    };
    int64_t cap = maxRank(gamma.tensors.front());
    for (WeightKind k : gamma.tensors)
        cap = std::min(cap, maxRank(k));
    gamma.prunedRank =
        1 + static_cast<int64_t>(rng.uniformInt(static_cast<uint64_t>(cap)));
    for (int o = 0; o < 2; ++o) {
        if (!rng.bernoulli(0.5))
            continue;
        const int l = gamma.layers[rng.uniformInt(gamma.layers.size())];
        const WeightKind k =
            gamma.tensors[rng.uniformInt(gamma.tensors.size())];
        gamma.rankOverrides[{l, static_cast<int>(k)}] =
            1 + static_cast<int64_t>(
                    rng.uniformInt(static_cast<uint64_t>(maxRank(k))));
    }
    return gamma;
}

TEST(DecompConfig, ParamArithmeticMatchesModel)
{
    // Seeded property test: over random (architecture, KV heads, layer
    // set, tensor set, rank, overrides) configs, the closed-form
    // parameter arithmetic must equal a direct count on a live model.
    int groupedBert = 0;
    int groupedLlama = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        const ModelConfig cfg = randomModelConfig(rng);
        const bool grouped = cfg.kvHeads() < cfg.nHeads;
        groupedBert += grouped && cfg.arch == Arch::BertStyle ? 1 : 0;
        groupedLlama += grouped && cfg.arch == Arch::LlamaStyle ? 1 : 0;
        const DecompConfig gamma = randomDecompConfig(cfg, rng);
        SCOPED_TRACE(strCat("seed ", seed, " ", cfg.name, " dModel ",
                            cfg.dModel, " heads ", cfg.nHeads, "/",
                            cfg.nKvHeads, " ", gamma.describe()));
        ASSERT_TRUE(gamma.valid(cfg));
        TransformerModel model(cfg, seed);
        const int64_t before = model.paramCount();
        EXPECT_EQ(cfg.totalParams(), before);
        ASSERT_TRUE(gamma.applyTo(model).ok());
        const int64_t drop = before - model.paramCount();
        EXPECT_EQ(drop, gamma.paramsBefore(cfg) - gamma.paramsAfter(cfg));
        EXPECT_NEAR(gamma.parameterReduction(cfg),
                    static_cast<double>(drop) / static_cast<double>(before),
                    1e-12);
    }
    // The seeds cover grouped KV heads in both architectures.
    EXPECT_GT(groupedBert, 0);
    EXPECT_GT(groupedLlama, 0);
}

TEST(DecompConfig, ApplyInvalidConfigIsFatal)
{
    const ModelConfig cfg = testLlamaConfig();
    TransformerModel model(cfg, 3);
    DecompConfig bad = DecompConfig::allTensors(cfg, {7});
    try {
        (void)bad.applyTo(model);
        FAIL() << "applyTo accepted an invalid configuration";
    } catch (const std::runtime_error &e) {
        // The message carries the reason valid() reported.
        EXPECT_NE(std::string(e.what()).find("layer 7 out of range"),
                  std::string::npos)
            << e.what();
    }
}

TEST(DesignSpace, Theorem32MatchesBruteForceEnumeration)
{
    // Enumerate a tiny model and compare against the closed form.
    ModelConfig cfg = testLlamaConfig(); // 2 layers, 7 tensors
    for (int64_t rank : {1, 2, 3}) {
        const auto all = enumerateUniformConfigs(cfg, rank);
        // Uniqueness of configurations.
        std::set<std::string> keys;
        for (const DecompConfig &c : all) {
            std::string key = c.describe();
            EXPECT_TRUE(keys.insert(key).second) << key;
            EXPECT_TRUE(c.valid(cfg)) << key;
        }
        EXPECT_EQ(all.size(),
                  designSpaceSizeExact(cfg.nLayers,
                                       cfg.numDecomposableTensors(),
                                       rank));
    }
}

TEST(DesignSpace, ClosedFormKnownValues)
{
    // (2^2 - 1)(2^2 - 1) * 1 + 1 = 10.
    EXPECT_EQ(designSpaceSizeExact(2, 2, 1), 10U);
    // (2^3 - 1)(2^1 - 1) * 4 + 1 = 29.
    EXPECT_EQ(designSpaceSizeExact(3, 1, 4), 29U);
}

TEST(DesignSpace, Log2MatchesPaperTable2)
{
    // Paper Table 2 scales (using its own layer/tensor counts):
    // BERT-Base (12, 6) -> O(2^18); BERT-Large (24, 6) -> O(2^30);
    // Llama2-7B (32, 5) -> O(2^37); Llama2-70B (80, 5) -> O(2^85).
    EXPECT_NEAR(designSpaceSizeLog2(12, 6, 1), 18.0, 0.1);
    EXPECT_NEAR(designSpaceSizeLog2(24, 6, 1), 30.0, 0.1);
    EXPECT_NEAR(designSpaceSizeLog2(32, 5, 1), 37.0, 0.1);
    EXPECT_NEAR(designSpaceSizeLog2(80, 5, 1), 85.0, 0.1);
}

TEST(DesignSpace, Log2ConsistentWithExactForSmallDims)
{
    for (int64_t l : {2, 5, 10})
        for (int64_t t : {1, 3, 6})
            for (int64_t r : {1, 7}) {
                const double exact = std::log2(
                    static_cast<double>(designSpaceSizeExact(l, t, r)));
                EXPECT_NEAR(designSpaceSizeLog2(l, t, r), exact, 0.01)
                    << l << " " << t << " " << r;
            }
}

TEST(Schedules, PaperTable4ReductionsMatchItsOwnPercentages)
{
    // Applying each Table 4 row to the real Llama2-7B shape must
    // reproduce the paper's reduction column (7 tensors per layer,
    // rank 1) within rounding.
    const ModelConfig cfg = llama2_7bConfig();
    for (const Table4Row &row : paperTable4()) {
        DecompConfig gamma =
            DecompConfig::allTensors(cfg, table4Layers0Based(row), 1);
        ASSERT_TRUE(gamma.valid(cfg));
        const double reduction = gamma.parameterReduction(cfg) * 100.0;
        EXPECT_NEAR(reduction, row.reductionPercent, 1.6)
            << "row " << row.reductionPercent << "%";
    }
}

TEST(Schedules, Table4LayerListsAreSortedUniqueInRange)
{
    for (const Table4Row &row : paperTable4()) {
        auto layers = table4Layers0Based(row);
        EXPECT_TRUE(std::is_sorted(layers.begin(), layers.end()));
        EXPECT_EQ(std::adjacent_find(layers.begin(), layers.end()),
                  layers.end());
        for (int l : layers) {
            EXPECT_GE(l, 0);
            EXPECT_LT(l, 32);
        }
    }
}

TEST(Schedules, SpreadScheduleBasicProperties)
{
    for (int n : {1, 2, 3, 8, 12, 32}) {
        for (int count = 0; count <= n; ++count) {
            const auto s = spreadSchedule(n, count);
            EXPECT_EQ(static_cast<int>(s.size()), count);
            EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
            EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
            for (int l : s) {
                EXPECT_GE(l, 0);
                EXPECT_LT(l, n);
            }
            // Insight: the sensitive layers only appear when forced.
            if (count <= n - 3) {
                EXPECT_EQ(std::count(s.begin(), s.end(), 0), 0);
                EXPECT_EQ(std::count(s.begin(), s.end(), 1), 0);
                EXPECT_EQ(std::count(s.begin(), s.end(), n - 1), 0);
            }
        }
    }
    EXPECT_THROW(spreadSchedule(4, 5), std::runtime_error);
}

TEST(Schedules, SpreadScheduleSpacesLayersApart)
{
    // For few layers the minimum gap must be large (insight: spread).
    const auto s = spreadSchedule(32, 4);
    int minGap = 100;
    for (size_t i = 1; i < s.size(); ++i)
        minGap = std::min(minGap, s[i] - s[i - 1]);
    EXPECT_GE(minGap, 5);
}

TEST(Schedules, ScheduleForReductionHitsTarget)
{
    const ModelConfig cfg = llama2_7bConfig();
    for (double target : {0.06, 0.21, 0.48, 0.90}) {
        const DecompConfig gamma = scheduleForReduction(cfg, target);
        EXPECT_TRUE(gamma.valid(cfg));
        // Per-layer granularity is ~3%, so allow half a layer slack.
        EXPECT_NEAR(gamma.parameterReduction(cfg), target, 0.016)
            << "target " << target;
    }
    EXPECT_TRUE(scheduleForReduction(cfg, 0.0).empty());
}

TEST(DseGrid, IsRanksTimesLayersAndRejectsDuplicateRanks)
{
    const std::vector<uint8_t> bytes =
        TransformerModel(sweepfix::smallConfig(), 17).serialize();
    OptimizerOptions opts;
    opts.evalTasks = 2;
    opts.accuracyDropTolerance = 1.1;

    // A repeated rank would evaluate its grid points twice.
    opts.candidateRanks = {2, 1, 2};
    EXPECT_THROW(optimizeDecomposition(bytes, sweepfix::smallWorld(), opts),
                 std::runtime_error);
    // Rank 20 factorizes every 32-wide weight but grows the model
    // (past its break-even), and rank 33 exceeds dModel = 32: neither
    // can make a shrinking candidate, so the sweep refuses to start.
    for (const int64_t bad : {20, 33}) {
        opts.candidateRanks = {1, bad};
        try {
            optimizeDecomposition(bytes, sweepfix::smallWorld(), opts);
            ADD_FAILURE() << "rank " << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "candidate rank " + std::to_string(bad) + " "),
                      std::string::npos)
                << e.what();
        }
    }

    opts.candidateRanks = {2, 1};
    const OptimizerResult r =
        optimizeDecomposition(bytes, sweepfix::smallWorld(), opts);
    const int64_t nLayers = sweepfix::smallConfig().nLayers;
    EXPECT_EQ(r.gridSize, 2 * nLayers);
    ASSERT_EQ(static_cast<int64_t>(r.explored.size()), r.gridSize);
    for (int64_t i = 0; i < r.gridSize; ++i) {
        const CandidateRecord &rec = r.explored[static_cast<size_t>(i)];
        EXPECT_EQ(rec.gridIndex, i);
        EXPECT_EQ(rec.config.prunedRank, i < nLayers ? 2 : 1);
        EXPECT_EQ(static_cast<int64_t>(rec.config.layers.size()),
                  i % nLayers + 1);
    }
}

} // namespace
} // namespace lrd
