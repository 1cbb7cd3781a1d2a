/**
 * @file
 * Bitwise determinism across thread counts. The item loops are the
 * only parallel regions: the pool's fixed chunk partitioning must make
 * the evaluator, the trainer and the decompose-once DSE sweep produce
 * identical bits at LRD_THREADS=1 and LRD_THREADS=8. The kernels those
 * items run (matmul in all transpose variants, truncatedSvd, the
 * factorized forward) open no region of their own and must give the
 * same bits whatever pool surrounds them.
 *
 * This suite is the one the verify script re-runs under
 * -DLRD_SANITIZE=thread: it exercises the pool from a single posting
 * thread across resize cycles, which is exactly the usage TSan must
 * see clean, and it trains and scores on one shared model at once.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "dse/optimizer.h"
#include "dse/schedules.h"
#include "eval/benchmarks.h"
#include "eval/evaluator.h"
#include "hw/roofline.h"
#include "linalg/linalg.h"
#include "model/config.h"
#include "model/linear.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "sweep_fixture.h"
#include "train/model_zoo.h"
#include "train/trainer.h"

namespace lrd {
namespace {

constexpr int kManyThreads = 8;

// The whole suite runs with metrics recording on: the instrumented
// hot paths must not perturb numeric results at any thread count.
const bool kMetricsOn = [] {
    MetricsRegistry::instance().setEnabled(true);
    return true;
}();

/** Run fn with the pool at n threads, restoring nothing: each test
 *  sets the count it needs explicitly. */
template <class Fn>
auto
withThreads(int n, Fn fn)
{
    ThreadPool::instance().resize(n);
    return fn();
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
           && std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.size()) * sizeof(float))
                  == 0;
}

TEST(Determinism, MatmulAllVariantsAcrossThreadCounts)
{
    Rng rng(42);
    // Odd shapes that straddle the register-tile and A-block
    // boundaries of the blocked kernel.
    const Tensor a = Tensor::randn({150, 97}, rng);
    const Tensor b = Tensor::randn({97, 201}, rng);
    const Tensor bt = Tensor::randn({201, 97}, rng);
    const Tensor at = Tensor::randn({150, 201}, rng);

    const Tensor c1 = withThreads(1, [&] { return matmul(a, b); });
    const Tensor d1 = withThreads(1, [&] { return matmulTransB(a, bt); });
    const Tensor e1 = withThreads(1, [&] { return matmulTransA(a, at); });
    const Tensor cN =
        withThreads(kManyThreads, [&] { return matmul(a, b); });
    const Tensor dN =
        withThreads(kManyThreads, [&] { return matmulTransB(a, bt); });
    const Tensor eN =
        withThreads(kManyThreads, [&] { return matmulTransA(a, at); });

    EXPECT_TRUE(bitwiseEqual(c1, cN));
    EXPECT_TRUE(bitwiseEqual(d1, dN));
    EXPECT_TRUE(bitwiseEqual(e1, eN));
}

TEST(Determinism, TruncatedSvdAcrossThreadCounts)
{
    Rng rng(43);
    const Tensor a = Tensor::randn({70, 50}, rng);
    const SvdResult s1 =
        withThreads(1, [&] { return truncatedSvd(a, 8); });
    const SvdResult sN =
        withThreads(kManyThreads, [&] { return truncatedSvd(a, 8); });
    EXPECT_TRUE(bitwiseEqual(s1.u, sN.u));
    EXPECT_TRUE(bitwiseEqual(s1.v, sN.v));
    ASSERT_EQ(s1.s.size(), sN.s.size());
    for (size_t i = 0; i < s1.s.size(); ++i)
        EXPECT_EQ(s1.s[i], sN.s[i]) << "singular value " << i;
}

/** Every pool worker scores on the one model. Under TSan this is the
 *  shared-model check: concurrent forwards on a dense decoder, a
 *  factorized one and an encoder, on both the multiple-choice and the
 *  generation path. */
TEST(Determinism, EvaluatorAcrossThreadCounts)
{
    const World &world = defaultWorld();
    const ModelConfig llama = tinyLlamaConfig();
    TransformerModel factorized(llama, 1234);
    ASSERT_TRUE(scheduleForReduction(llama, 0.5).applyTo(factorized).ok());
    const std::vector<std::pair<std::string, std::vector<uint8_t>>> models =
        {{"dense", TransformerModel(llama, 1234).serialize()},
         {"factorized", factorized.serialize()},
         {"bert", TransformerModel(tinyBertConfig(), 1234).serialize()}};

    for (const auto &[name, bytes] : models) {
        for (BenchmarkKind kind :
             {allBenchmarks().front(), BenchmarkKind::Gsm8k}) {
            SCOPED_TRACE(name + " " + benchmarkName(kind));
            const auto evalOnce = [&] {
                TransformerModel model = TransformerModel::deserialize(bytes);
                return Evaluator(model, world, EvalOptions{16, 999, false})
                    .run(kind);
            };
            const EvalResult r1 = withThreads(1, evalOnce);
            for (const int threads : {4, kManyThreads}) {
                const EvalResult r = withThreads(threads, evalOnce);
                EXPECT_EQ(r.numCorrect, r1.numCorrect) << threads;
                EXPECT_EQ(r.numTasks, r1.numTasks) << threads;
                EXPECT_EQ(r.numFailed, r1.numFailed) << threads;
                EXPECT_EQ(r.accuracy, r1.accuracy) << threads;
            }
        }
    }
}

/** Every batch item trains on the one model into its own gradient
 *  buffer, folded in item order: the trained bytes are equal at 1, 4
 *  and 8 threads, dense and factorized (the paper's Section 6
 *  fine-tuning path). */
TEST(Determinism, TrainerAcrossThreadCounts)
{
    const World &world = defaultWorld();
    TrainOptions topts;
    topts.steps = 4;
    topts.batchSeqs = 4;
    topts.seqLen = 24;
    topts.warmupSteps = 2;
    topts.logEvery = 0;
    for (const bool factorized : {false, true}) {
        SCOPED_TRACE(factorized ? "factorized" : "dense");
        const auto trainOnce = [&] {
            TransformerModel model(tinyLlamaConfig(), 777);
            if (factorized) {
                EXPECT_TRUE(scheduleForReduction(model.config(), 0.5)
                                .applyTo(model)
                                .ok());
            }
            Trainer trainer(model, world, topts);
            const double loss = trainer.run();
            return std::make_pair(loss, model.serialize());
        };
        const auto [loss1, bytes1] = withThreads(1, trainOnce);
        for (const int threads : {4, kManyThreads}) {
            const auto [loss, bytes] = withThreads(threads, trainOnce);
            EXPECT_EQ(loss, loss1) << threads;
            EXPECT_EQ(bytes, bytes1) << threads;
        }
    }
}

/** Every choice's log-likelihood, scored on the pool's workers. */
std::vector<std::vector<double>>
scoreOnPool(const TransformerModel &model, const std::vector<McTask> &tasks)
{
    std::vector<std::vector<double>> scores(tasks.size());
    parallelFor(0, static_cast<int64_t>(tasks.size()), 1,
                [&](int64_t lo, int64_t hi) {
        for (int64_t t = lo; t < hi; ++t) {
            const McTask &task = tasks[static_cast<size_t>(t)];
            for (const TokenSeq &choice : task.choices)
                scores[static_cast<size_t>(t)].push_back(
                    scoreContinuation(model, task.context, choice));
        }
    });
    return scores;
}

bool
sameGradients(const Gradients &a, const Gradients &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t k = 0; k < a.size(); ++k)
        if (!bitwiseEqual(a[k], b[k]))
            return false;
    return true;
}

/**
 * Training and scoring share one model: one thread runs lossAndGrad in
 * a loop while pool workers score evaluator items on the same model.
 * The scores equal a run without training and every round's gradients
 * equal a lone lossAndGrad's, bit for bit. Under TSan this is the check
 * that no forward or backward writes the model.
 */
TEST(Determinism, TrainingAndScoringShareOneModel)
{
    const World &world = defaultWorld();
    TransformerModel model(tinyLlamaConfig(), 4321);
    // Some projections factorized, the rest dense.
    ASSERT_TRUE(
        scheduleForReduction(model.config(), 0.5).applyTo(model).ok());
    const std::vector<McTask> tasks =
        makeMcTasks(allBenchmarks().front(), world, 16, 999);
    const TokenSeq tokens = CorpusGenerator(world, 5).document(32);
    std::vector<int> targets(tokens.size(), -1);
    for (size_t i = 0; i + 1 < tokens.size(); ++i)
        targets[i] = tokens[i + 1];

    ThreadPool::instance().resize(4);
    const std::vector<std::vector<double>> alone = scoreOnPool(model, tasks);
    const std::vector<Parameter *> params = model.parameters();
    Gradients lone(params);
    const double loneLoss = model.lossAndGrad(tokens, targets, lone);

    std::atomic<bool> started{false};
    std::atomic<bool> scored{false};
    int rounds = 0;
    int mismatches = 0;
    // lossAndGrad opens no pool region, so this thread trains beside
    // the scoring region without queueing behind it.
    std::thread trainer([&] { // lrd-lint: allow(thread-outside-parallel) a training thread beside the pool's scoring
        Gradients grads(params);
        do {
            grads.zero();
            started = true;
            const double loss = model.lossAndGrad(tokens, targets, grads);
            ++rounds;
            if (loss != loneLoss || !sameGradients(grads, lone))
                ++mismatches;
        } while (!scored);
    });
    while (!started)
        std::this_thread::yield();
    const std::vector<std::vector<double>> shared = scoreOnPool(model, tasks);
    scored = true;
    trainer.join();
    EXPECT_EQ(shared, alone);
    EXPECT_GT(rounds, 0);
    EXPECT_EQ(mismatches, 0) << "of " << rounds << " rounds";
}

TEST(Determinism, GemmSkinnyFallbackAcrossThreadCounts)
{
    Rng rng(44);
    // Shapes below the blocked-path threshold take the fallback
    // kernels, serial on the calling thread at any pool size.
    const Tensor a = Tensor::randn({1, 3000}, rng);
    const Tensor b = Tensor::randn({3000, 700}, rng);
    const Tensor bt = Tensor::randn({700, 3000}, rng);
    const Tensor c1 = withThreads(1, [&] { return matmul(a, b); });
    const Tensor cN =
        withThreads(kManyThreads, [&] { return matmul(a, b); });
    const Tensor d1 = withThreads(1, [&] { return matmulTransB(a, bt); });
    const Tensor dN =
        withThreads(kManyThreads, [&] { return matmulTransB(a, bt); });
    EXPECT_TRUE(bitwiseEqual(c1, cN));
    EXPECT_TRUE(bitwiseEqual(d1, dN));
}

/** The bitwise thread-count contract must hold at every microkernel
 *  level this host can run, not just the startup choice: each level
 *  computes every C element in one register tile and visits k-slabs
 *  in a fixed serial order, whatever the pool size. */
TEST(Determinism, MatmulAcrossThreadCountsAtEverySimdLevel)
{
    Rng rng(31);
    const Tensor a = Tensor::randn({65, 130}, rng);
    const Tensor b = Tensor::randn({130, 53}, rng);
    const Tensor bt = Tensor::randn({53, 130}, rng);
    const Tensor at = Tensor::randn({65, 96}, rng);

    const simd::Level restore = simd::activeLevel();
    for (const simd::Level level : simd::availableLevels()) {
        simd::setActiveLevel(level);
        const Tensor c1 = withThreads(1, [&] { return matmul(a, b); });
        const Tensor c4 = withThreads(4, [&] { return matmul(a, b); });
        const Tensor cN =
            withThreads(kManyThreads, [&] { return matmul(a, b); });
        EXPECT_TRUE(bitwiseEqual(c1, c4)) << simd::levelName(level);
        EXPECT_TRUE(bitwiseEqual(c1, cN)) << simd::levelName(level);

        const Tensor d1 =
            withThreads(1, [&] { return matmulTransB(a, bt); });
        const Tensor dN = withThreads(kManyThreads,
                                      [&] { return matmulTransB(a, bt); });
        EXPECT_TRUE(bitwiseEqual(d1, dN)) << simd::levelName(level);

        const Tensor e1 =
            withThreads(1, [&] { return matmulTransA(a, at); });
        const Tensor eN = withThreads(kManyThreads,
                                      [&] { return matmulTransA(a, at); });
        EXPECT_TRUE(bitwiseEqual(e1, eN)) << simd::levelName(level);
    }
    simd::setActiveLevel(restore);
}

/**
 * The item loops are the only parallel regions: a GEMM, an SVD, a
 * forward, a decode step and a training step run serially on the
 * calling thread, so none of them counts a pool chunk even as the
 * outermost call on a 4-thread pool.
 */
TEST(Determinism, KernelsAndForwardsOpenNoPoolRegion)
{
    ThreadPool::instance().resize(4);
    Counter *chunks = MetricsRegistry::instance().counter("pool.chunks");
    const auto chunksDuring = [&](const auto &fn) {
        const int64_t before = chunks->total();
        fn();
        return chunks->total() - before;
    };

    Rng rng(45);
    for (const auto &[m, k, n] :
         {std::tuple<int64_t, int64_t, int64_t>{256, 256, 256},
          {1, 3000, 700}}) {
        SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor b = Tensor::randn({k, n}, rng);
        const Tensor bt = Tensor::randn({n, k}, rng);
        const Tensor at = Tensor::randn({m, n}, rng);
        EXPECT_EQ(chunksDuring([&] { (void)matmul(a, b); }), 0);
        EXPECT_EQ(chunksDuring([&] { (void)matmulTransB(a, bt); }), 0);
        EXPECT_EQ(chunksDuring([&] { (void)matmulTransA(a, at); }), 0);
    }
    const Tensor w = Tensor::randn({64, 176}, rng);
    EXPECT_EQ(chunksDuring([&] { (void)svd(w); }), 0);

    TransformerModel model(tinyLlamaConfig(), 46);
    TokenSeq tokens;
    for (int i = 0; i < 64; ++i)
        tokens.push_back(i % 100);
    std::vector<int> targets(tokens.size(), -1);
    for (size_t i = 0; i + 1 < tokens.size(); ++i)
        targets[i] = tokens[i + 1];
    EXPECT_EQ(chunksDuring([&] { (void)model.forward(tokens); }), 0);
    InferenceSession session(model);
    EXPECT_EQ(chunksDuring([&] { (void)session.append(tokens); }), 0);
    EXPECT_EQ(chunksDuring([&] { (void)session.append({5}); }), 0);
    Gradients grads(model.parameters());
    EXPECT_EQ(
        chunksDuring([&] { (void)model.lossAndGrad(tokens, targets, grads); }),
        0);
}

/** The factorized forward shares the contract: its chain of three
 *  products, each blocked at these shapes, gives the same bits at any
 *  pool size. */
TEST(Determinism, FactorizedForwardAcrossThreadCounts)
{
    Rng rng(32);
    for (const auto &[dim, rank] :
         {std::pair<int64_t, int64_t>{96, 24}, {256, 200}}) {
        Linear l(dim, dim, /*hasBias=*/true, "dettest.factorized", &rng);
        l.installFactorShape(rank);
        for (Parameter *p : l.parameters())
            p->value = Tensor::randn(p->value.shape(), rng);
        const Tensor x = Tensor::randn({96, dim}, rng);

        const Tensor y1 = withThreads(1, [&] { return l.forward(x); });
        const Tensor y4 = withThreads(4, [&] { return l.forward(x); });
        const Tensor yN =
            withThreads(kManyThreads, [&] { return l.forward(x); });
        EXPECT_TRUE(bitwiseEqual(y1, y4)) << dim << "/" << rank;
        EXPECT_TRUE(bitwiseEqual(y1, yN)) << dim << "/" << rank;
    }
}

/** Distinct (layer, tensor) weights the sweep's grid decomposes. */
int64_t
distinctSweepWeights(const ModelConfig &cfg)
{
    std::set<int> layers;
    for (int count = 1; count <= cfg.nLayers; ++count)
        for (int l : spreadSchedule(static_cast<int>(cfg.nLayers), count))
            layers.insert(l);
    return static_cast<int64_t>(layers.size()
                                * decomposableKinds(cfg.arch).size());
}

/**
 * The sweep computed the direct way: the dense baseline, then for every
 * grid point a fresh model with each entry's Linear factorized,
 * evaluated and estimated as optimizeDecomposition does (EDP projected
 * onto Llama2-7B), folded by the same serial fold.
 */
OptimizerResult
perCandidateReference(const std::vector<uint8_t> &bytes,
                      const OptimizerOptions &opts)
{
    const ModelConfig cfg = TransformerModel::deserialize(bytes).config();
    const ModelConfig shape = llama2_7bConfig();
    const EvalOptions evalOpts{opts.evalTasks, opts.evalSeed, false};
    const auto estimate = [&](CandidateRecord &rec) {
        rec.reduction = rec.config.parameterReduction(cfg);
        const InferenceEstimate est = estimateGeneration(
            shape, scheduleForReduction(shape, rec.reduction), opts.device,
            opts.workload);
        rec.latencySec = est.latencySec;
        rec.energyJ = est.energyJoules;
        rec.edp = est.latencySec * est.energyJoules;
    };

    TransformerModel dense = TransformerModel::deserialize(bytes);
    CandidateRecord baseline;
    baseline.accuracy = Evaluator(dense, sweepfix::smallWorld(), evalOpts)
                            .aggregateAccuracy();
    estimate(baseline);

    std::vector<CandidateRecord> records;
    for (int64_t rank : opts.candidateRanks) {
        for (int count = 1; count <= cfg.nLayers; ++count) {
            CandidateRecord rec;
            rec.config = DecompConfig::allTensors(
                cfg, spreadSchedule(static_cast<int>(cfg.nLayers), count),
                rank);
            TransformerModel model = TransformerModel::deserialize(bytes);
            for (const PrunedRankEntry &e : rec.config.prunedRanks())
                EXPECT_TRUE(
                    model.linear(e.layer, e.kind).factorize(e.rank).ok());
            rec.accuracy =
                Evaluator(model, sweepfix::smallWorld(), evalOpts)
                    .aggregateAccuracy();
            estimate(rec);
            records.push_back(rec);
        }
    }
    return foldCandidateRecords(baseline.accuracy, baseline.edp,
                                opts.accuracyDropTolerance,
                                std::move(records));
}

/** The decompose-once sweep builds its factor bank over the pool: at
 *  every thread count it runs one SVD per distinct weight and its
 *  records are bitwise those of factorizing each candidate's own
 *  model. */
TEST(Determinism, DseFactorBankSweepAcrossThreadCounts)
{
    OptimizerOptions opts;
    opts.evalTasks = 6;
    opts.accuracyDropTolerance = 1.1;
    opts.candidateRanks = {1, 2, 4, 8};
    const std::vector<uint8_t> &bytes = sweepfix::trainedBytes();
    const OptimizerResult ref = withThreads(
        1, [&] { return perCandidateReference(bytes, opts); });
    Counter *svdCalls = MetricsRegistry::instance().counter("svd.calls");
    for (const int threads : {1, 4, kManyThreads}) {
        SCOPED_TRACE(threads);
        const int64_t before = svdCalls->total();
        const OptimizerResult r = withThreads(threads, [&] {
            return optimizeDecomposition(bytes, sweepfix::smallWorld(),
                                         opts);
        });
        EXPECT_EQ(svdCalls->total() - before,
                  distinctSweepWeights(sweepfix::smallConfig()));
        EXPECT_EQ(r.numFailed, 0);
        sweepfix::expectSameRecords(r.explored, ref.explored);
    }
}

} // namespace
} // namespace lrd
