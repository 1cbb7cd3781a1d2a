/**
 * @file
 * End-to-end fault-tolerance tests: trainer and DSE kill-and-resume
 * (an injected cancellation mid-run, then a resumed run that must be
 * bitwise identical to the uninterrupted one at every thread count),
 * evaluator failure budgets under poisoned activations, and
 * recovery-policy behavior of the factorization path and of the DSE
 * sweep's shared factor bank.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "dse/optimizer.h"
#include "eval/evaluator.h"
#include "model/transformer.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "sweep_fixture.h"
#include "train/trainer.h"
#include "util/cache.h"

namespace lrd {
namespace {

namespace fs = std::filesystem;
using namespace sweepfix;

/** Restores the default policy and disarms faults around each test. */
struct RobustGuard
{
    RobustGuard() { reset(); }
    ~RobustGuard() { reset(); }

    static void reset()
    {
        clearFaults();
        setRobustPolicy(RobustPolicy{});
        (void)takeNumericFault();
        // The cancel token is process-wide: a leftover request would
        // abort every later test immediately.
        clearCancelRequest();
        resetSignalsForTest();
    }
};

/** Fresh checkpoint path (primary, .prev and .tmp all removed). */
std::string
ckptPath(const std::string &name)
{
    const fs::path p = fs::temp_directory_path() / name;
    fs::remove(p);
    fs::remove(p.string() + ".prev");
    fs::remove(checkpointTmpPath(p.string()));
    return p.string();
}

TrainOptions
resumableTrainOptions()
{
    TrainOptions t;
    t.steps = 10;
    t.batchSeqs = 4;
    t.seqLen = 24;
    t.warmupSteps = 2;
    t.logEvery = 0;
    return t;
}

TEST(Resume, TrainerKillAndResumeIsBitwiseIdentical)
{
    RobustGuard guard;
    for (int nThreads : {1, 4, 8}) {
        ThreadPool::instance().resize(nThreads);

        // Uninterrupted reference run (no checkpointing).
        TrainOptions clean = resumableTrainOptions();
        TransformerModel refModel(smallConfig(), 777);
        Trainer ref(refModel, smallWorld(), clean);
        const double refLoss = ref.run();
        const std::vector<uint8_t> refBytes = refModel.serialize();

        // Interrupted run: an injected cancellation kills the loop
        // before step 7; the step-4 checkpoint is the resume point.
        TrainOptions opts = resumableTrainOptions();
        opts.checkpointPath =
            ckptPath("lrd_resume_train_" + std::to_string(nThreads)
                     + ".bin");
        opts.checkpointEvery = 4;
        {
            TransformerModel model(smallConfig(), 777);
            Trainer trainer(model, smallWorld(), opts);
            setFault(FaultSpec{"train.step", FaultKind::Cancel, 8});
            trainer.run();
            clearFaults();
            clearCancelRequest();
            ASSERT_EQ(trainer.runStatus().code(), StatusCode::Cancelled)
                << "threads=" << nThreads;
        }

        // Resumed run: picks up at the checkpoint and must land on
        // bitwise the same weights and loss as the reference.
        opts.resume = true;
        TransformerModel model(smallConfig(), 777);
        Trainer trainer(model, smallWorld(), opts);
        const double loss = trainer.run();
        EXPECT_TRUE(trainer.runStatus().ok());
        EXPECT_EQ(loss, refLoss) << "threads=" << nThreads;
        EXPECT_EQ(model.serialize(), refBytes) << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);
}

TEST(Resume, TrainerSigintKillAndResumeIsBitwiseIdentical)
{
    RobustGuard guard;
    // Real handler path: the injected cancel fault raises an actual
    // SIGINT, which travels through the async-signal-safe handler into
    // the cooperative token — exactly what an operator's Ctrl-C does.
    installSignalHandlers();
    for (int nThreads : {1, 4, 8}) {
        ThreadPool::instance().resize(nThreads);

        TrainOptions clean = resumableTrainOptions();
        TransformerModel refModel(smallConfig(), 777);
        Trainer ref(refModel, smallWorld(), clean);
        const double refLoss = ref.run();
        const std::vector<uint8_t> refBytes = refModel.serialize();

        TrainOptions opts = resumableTrainOptions();
        opts.checkpointPath =
            ckptPath("lrd_sigint_train_" + std::to_string(nThreads)
                     + ".bin");
        opts.checkpointEvery = 4;
        {
            TransformerModel model(smallConfig(), 777);
            Trainer trainer(model, smallWorld(), opts);
            resetSignalsForTest();
            setFault(FaultSpec{"train.step", FaultKind::Cancel, 8});
            trainer.run();
            clearFaults();
            ASSERT_EQ(trainer.runStatus().code(), StatusCode::Cancelled)
                << "threads=" << nThreads;
            EXPECT_EQ(cancelCause(), CancelCause::Signal);
            EXPECT_EQ(signalsSeen(), 1);
            clearCancelRequest();
            resetSignalsForTest();
        }

        opts.resume = true;
        TransformerModel model(smallConfig(), 777);
        Trainer trainer(model, smallWorld(), opts);
        const double loss = trainer.run();
        EXPECT_TRUE(trainer.runStatus().ok());
        EXPECT_EQ(loss, refLoss) << "threads=" << nThreads;
        EXPECT_EQ(model.serialize(), refBytes) << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);
}

TEST(Resume, TrainerResumeWithoutCheckpointStartsFresh)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    TrainOptions opts = resumableTrainOptions();
    opts.steps = 2;
    opts.checkpointPath = ckptPath("lrd_resume_train_fresh.bin");
    opts.checkpointEvery = 1;
    opts.resume = true; // Nothing on disk yet: fresh start, no error.

    TransformerModel model(smallConfig(), 777);
    Trainer trainer(model, smallWorld(), opts);
    trainer.run();
    EXPECT_TRUE(trainer.runStatus().ok());
    EXPECT_TRUE(fs::exists(opts.checkpointPath));
}

/** A resume with no steps left writes the checkpoint's factors
 *  through parameters() into a model that already ran a 16-row forward
 *  on its own: the next forward must read the restored factors. */
TEST(Resume, TrainerResumeWithNoStepsLeftRestoresFactors)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    const ModelConfig cfg = smallConfig();
    const DecompConfig gamma = DecompConfig::allTensors(cfg, {0, 2}, 4);
    TrainOptions opts = resumableTrainOptions();
    opts.steps = 2;
    opts.checkpointPath = ckptPath("lrd_resume_train_repack.bin");
    opts.checkpointEvery = 2;
    TokenSeq tokens(16);
    for (size_t i = 0; i < tokens.size(); ++i)
        tokens[i] = static_cast<int>((7 * i + 3) % cfg.vocabSize);

    TransformerModel trained(cfg, 777);
    ASSERT_TRUE(gamma.applyTo(trained).ok());
    Trainer(trained, smallWorld(), opts).run();

    TransformerModel resumed(cfg, 777);
    ASSERT_TRUE(gamma.applyTo(resumed).ok());
    (void)resumed.forward(tokens); // runs on the untrained factors
    opts.resume = true;
    Trainer trainer(resumed, smallWorld(), opts);
    trainer.run();
    EXPECT_TRUE(trainer.runStatus().ok());

    const Tensor want = trained.forward(tokens);
    const Tensor got = resumed.forward(tokens);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.size()) * sizeof(float)),
              0);
}

TEST(Resume, DseKillAndResumeMatchesUninterruptedSweep)
{
    RobustGuard guard;
    ThreadPool::instance().resize(4);

    OptimizerOptions opts;
    opts.evalTasks = 10;
    opts.accuracyDropTolerance = 1.1;

    // Uninterrupted reference sweep.
    const OptimizerResult ref =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(ref.cancelled);

    // Interrupted sweep: the cancel fires at the start of the second
    // batch, so only the first checkpointEvery candidates complete.
    opts.checkpointPath = ckptPath("lrd_resume_dse.bin");
    opts.checkpointEvery = 2;
    setFault(FaultSpec{"dse.batch", FaultKind::Cancel, 2});
    const OptimizerResult cut =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    clearFaults();
    clearCancelRequest();
    ASSERT_TRUE(cut.cancelled);
    EXPECT_EQ(cut.status.code(), StatusCode::Cancelled);
    EXPECT_EQ(cut.explored.size(), 2U);
    ASSERT_TRUE(fs::exists(opts.checkpointPath));

    // Resumed sweep: restores the baseline and the completed prefix
    // from the checkpoint and must reproduce the reference bitwise.
    opts.resume = true;
    const OptimizerResult resumed =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.baselineAccuracy, ref.baselineAccuracy);
    EXPECT_EQ(resumed.baselineEdp, ref.baselineEdp);
    expectSameRecords(resumed.explored, ref.explored);
    EXPECT_EQ(resumed.best.config.describe(), ref.best.config.describe());
    EXPECT_EQ(resumed.best.edp, ref.best.edp);
    ThreadPool::instance().resize(1);
}

TEST(Resume, DseSigintKillAndResumeMatchesUninterruptedSweep)
{
    RobustGuard guard;
    installSignalHandlers();
    ThreadPool::instance().resize(4);

    OptimizerOptions opts;
    opts.evalTasks = 10;
    opts.accuracyDropTolerance = 1.1;

    const OptimizerResult ref =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(ref.cancelled);

    // A real SIGINT at the start of the second batch: the sweep
    // checkpoints the completed prefix and stops as Cancelled.
    opts.checkpointPath = ckptPath("lrd_sigint_dse.bin");
    opts.checkpointEvery = 2;
    resetSignalsForTest();
    setFault(FaultSpec{"dse.batch", FaultKind::Cancel, 2});
    const OptimizerResult cut =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    clearFaults();
    ASSERT_TRUE(cut.cancelled);
    EXPECT_EQ(cut.status.code(), StatusCode::Cancelled);
    EXPECT_EQ(cancelCause(), CancelCause::Signal);
    EXPECT_EQ(signalsSeen(), 1);
    clearCancelRequest();
    resetSignalsForTest();
    ASSERT_TRUE(fs::exists(opts.checkpointPath));

    opts.resume = true;
    const OptimizerResult resumed =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.baselineAccuracy, ref.baselineAccuracy);
    EXPECT_EQ(resumed.baselineEdp, ref.baselineEdp);
    expectSameRecords(resumed.explored, ref.explored);
    EXPECT_EQ(resumed.best.config.describe(), ref.best.config.describe());
    EXPECT_EQ(resumed.best.edp, ref.best.edp);
    ThreadPool::instance().resize(1);
}

TEST(Resume, EvaluatorDegradesPoisonedItemsWithinBudget)
{
    RobustGuard guard;
    RobustPolicy degrade;
    degrade.mode = RobustMode::Degrade;
    degrade.failureBudget = 0.5;
    setRobustPolicy(degrade);

    TransformerModel model(smallConfig(), 42);
    Evaluator ev(model, smallWorld(), EvalOptions{12, 5, false});

    // One poisoned activation: exactly one item fails, whichever
    // worker hits it, the sweep completes, and the failure is
    // reported in the result.
    for (int nThreads : {1, 4, 8}) {
        ThreadPool::instance().resize(nThreads);
        setFault(FaultSpec{"model.block", FaultKind::Nan, 1});
        const EvalResult r = ev.run(BenchmarkKind::ArcEasy);
        clearFaults();
        EXPECT_EQ(r.numFailed, 1) << "threads=" << nThreads;
        EXPECT_EQ(r.numTasks, 12) << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);

    // With a zero budget the same poisoned run is fatal.
    degrade.failureBudget = 0.0;
    setRobustPolicy(degrade);
    setFault(FaultSpec{"model.block", FaultKind::Nan, 1});
    EXPECT_THROW(ev.run(BenchmarkKind::ArcEasy), std::runtime_error);
    clearFaults();
}

TEST(Resume, EvaluatorDegradesInjectedAllocFailure)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    RobustPolicy degrade;
    degrade.mode = RobustMode::Degrade;
    degrade.failureBudget = 0.5;
    setRobustPolicy(degrade);

    TransformerModel model(smallConfig(), 42);
    Evaluator ev(model, smallWorld(), EvalOptions{12, 5, false});
    setFault(FaultSpec{"eval.item", FaultKind::Alloc, 3});
    const EvalResult r = ev.run(BenchmarkKind::ArcEasy);
    clearFaults();
    EXPECT_EQ(r.numFailed, 1);
    EXPECT_EQ(r.numTasks, 12);

    // Strict has no failure budget: the same failed item is fatal.
    RobustPolicy strict;
    strict.mode = RobustMode::Strict;
    setRobustPolicy(strict);
    setFault(FaultSpec{"eval.item", FaultKind::Alloc, 3});
    EXPECT_THROW(ev.run(BenchmarkKind::ArcEasy), std::runtime_error);
    clearFaults();
}

TEST(Resume, FactorizeDegradeKeepsDenseOnNonConvergence)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(smallConfig(), 42);
    const int64_t denseParams = model.paramCount();

    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    const Status s = model.linear(0, WeightKind::Query).factorize(2);
    clearFaults();
    EXPECT_EQ(s.code(), StatusCode::NonConvergence);
    // Degrade keeps the dense weight: the model is untouched and
    // usable.
    EXPECT_FALSE(model.linear(0, WeightKind::Query).isFactorized());
    EXPECT_EQ(model.paramCount(), denseParams);
}

TEST(Resume, StrictPolicyFailsFastOnNonConvergence)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    RobustPolicy strict;
    strict.mode = RobustMode::Strict;
    setRobustPolicy(strict);

    TransformerModel model(smallConfig(), 42);
    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    EXPECT_THROW(model.linear(0, WeightKind::Query).factorize(2),
                 std::runtime_error);
    clearFaults();
}

/** The decompose-once sweep over ranks {1,2,4,8} (its records and SVD
 *  count are checked against a per-candidate reference in
 *  determinism_test): options shared by the fault tests below. */
OptimizerOptions
bankSweepOptions()
{
    OptimizerOptions opts;
    opts.evalTasks = 6;
    opts.accuracyDropTolerance = 1.1;
    opts.candidateRanks = {1, 2, 4, 8};
    return opts;
}

/** Under degrade a poisoned bank key fails every candidate whose
 *  configuration decomposes that weight, and only those. */
TEST(Resume, DseDegradeFailsExactlyTheCandidatesUsingAPoisonedBankKey)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    const OptimizerOptions opts = bankSweepOptions();
    const OptimizerResult clean =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);

    RobustPolicy degrade;
    degrade.failureBudget = 1.0;
    setRobustPolicy(degrade);
    // On one thread the bank computes its slots in ascending (layer,
    // kind) order, so the first Jacobi run is the lowest decomposed
    // layer's first tensor.
    int poisonedLayer = smallConfig().nLayers;
    for (const CandidateRecord &rec : clean.explored)
        poisonedLayer = std::min(poisonedLayer, rec.config.layers.front());
    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    const OptimizerResult r =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    clearFaults();

    ASSERT_EQ(r.explored.size(), clean.explored.size());
    int expectFailed = 0;
    for (size_t i = 0; i < r.explored.size(); ++i) {
        const std::vector<int> &layers = clean.explored[i].config.layers;
        const bool poisoned =
            std::find(layers.begin(), layers.end(), poisonedLayer)
            != layers.end();
        expectFailed += poisoned ? 1 : 0;
        EXPECT_EQ(r.explored[i].failed, poisoned) << i;
        if (!poisoned) {
            EXPECT_TRUE(
                sameBits(r.explored[i].accuracy, clean.explored[i].accuracy))
                << i;
        }
    }
    EXPECT_GT(expectFailed, 0);
    EXPECT_LT(expectFailed, static_cast<int>(r.explored.size()));
    EXPECT_EQ(r.numFailed, expectFailed);
}

/** A kill inside the bank build stops the sweep before any candidate
 *  runs; the resumed sweep reproduces the uninterrupted one. */
TEST(Resume, DseCancelDuringFactorBankCommitsNoCandidateAndResumes)
{
    RobustGuard guard;
    ThreadPool::instance().resize(4);
    OptimizerOptions opts = bankSweepOptions();
    const OptimizerResult ref =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);

    opts.checkpointPath = ckptPath("lrd_resume_dse_bank.bin");
    opts.checkpointEvery = 4;
    setFault(FaultSpec{"jacobi", FaultKind::Cancel, 1});
    const OptimizerResult cut =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    clearFaults();
    clearCancelRequest();
    resetSignalsForTest();
    ASSERT_TRUE(cut.cancelled);
    EXPECT_EQ(cut.status.code(), StatusCode::Cancelled);
    EXPECT_TRUE(cut.explored.empty());

    opts.resume = true;
    const OptimizerResult resumed =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(resumed.cancelled);
    EXPECT_TRUE(sameBits(resumed.baselineAccuracy, ref.baselineAccuracy));
    expectSameRecords(resumed.explored, ref.explored);
    EXPECT_EQ(resumed.best.config.describe(), ref.best.config.describe());
    ThreadPool::instance().resize(1);
}

/** A resumed checkpoint is outside input: a CRC-valid file whose
 *  record declares more layers or tensors than it holds fails as a
 *  truncated stream before anything is sized by the count. */
TEST(Resume, DseCheckpointRecordCountsAreBoundedByThePayload)
{
    RobustGuard guard;
    const std::vector<uint8_t> bytes =
        TransformerModel(smallConfig(), 17).serialize();
    OptimizerOptions opts;
    opts.evalTasks = 2;
    opts.checkpointPath = ckptPath("lrd_resume_dse_hostile.bin");
    opts.resume = true;

    constexpr uint64_t kHuge = uint64_t{1} << 62;
    for (const bool hostileLayers : {true, false}) {
        SCOPED_TRACE(hostileLayers ? "layers" : "tensors");
        // A v2 payload whose grid matches the search (rank 1 x every
        // layer count) and whose first record is done but declares
        // 2^62 entries.
        ByteWriter w;
        w.putF64(0.5); // Baseline accuracy.
        w.putF64(1.0); // Baseline EDP.
        w.putU64(static_cast<uint64_t>(smallConfig().nLayers));
        for (int count = 1; count <= smallConfig().nLayers; ++count) {
            w.putU64(1);
            w.putU32(static_cast<uint32_t>(count));
        }
        w.putU32(1);
        if (hostileLayers) {
            w.putU64(kHuge);
        } else {
            w.putU64(1);
            w.putU32(1);
            w.putU64(kHuge);
        }
        ASSERT_TRUE(writeCheckpoint(opts.checkpointPath, 2, w.bytes()).ok());
        EXPECT_THROW(optimizeDecomposition(bytes, smallWorld(), opts),
                     std::runtime_error);
    }
}

/** Bank slots the pool's cancel drain skipped read Cancelled, never as
 *  an ok empty SVD, and a config applied from them stays dense. */
TEST(Resume, FactorBankSlotsSkippedByCancelReadCancelled)
{
    RobustGuard guard;
    const ModelConfig cfg = smallConfig();
    std::vector<int> all(static_cast<size_t>(cfg.nLayers));
    for (size_t l = 0; l < all.size(); ++l)
        all[l] = static_cast<int>(l);
    const DecompConfig gamma = DecompConfig::allTensors(cfg, all, 2);
    for (int nThreads : {1, 4}) {
        SCOPED_TRACE(nThreads);
        ThreadPool::instance().resize(nThreads);
        TransformerModel model = TransformerModel::deserialize(trainedBytes());
        setFault(FaultSpec{"jacobi", FaultKind::Cancel, 1});
        const FactorBank bank(model, {gamma});
        clearFaults();
        for (const PrunedRankEntry &e : gamma.prunedRanks()) {
            SCOPED_TRACE(strCat(weightKindName(e.kind), " in layer ",
                                e.layer));
            const SvdResult &slot = bank.at(e.layer, e.kind);
            if (nThreads == 1 || !slot.status.ok()) {
                EXPECT_EQ(slot.status.code(), StatusCode::Cancelled);
            } else {
                // Finished before the cancel landed: a complete SVD.
                const Linear &lin = model.linear(e.layer, e.kind);
                EXPECT_EQ(static_cast<int64_t>(slot.s.size()),
                          std::min(lin.outDim(), lin.inDim()));
            }
        }
        const Status s = gamma.applyTo(model, bank);
        EXPECT_EQ(s.code(), StatusCode::Cancelled);
        if (nThreads == 1) {
            for (const PrunedRankEntry &e : gamma.prunedRanks())
                EXPECT_FALSE(model.linear(e.layer, e.kind).isFactorized());
        }
        clearCancelRequest();
        resetSignalsForTest();
    }
    ThreadPool::instance().resize(1);
}

} // namespace
} // namespace lrd
