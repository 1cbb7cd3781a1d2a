/**
 * @file
 * Tests for cooperative cancellation, deadlines and signal handling:
 * token semantics (first cause wins), LRD_DEADLINE parsing,
 * serial-point work-budget accounting and its determinism at any
 * thread count, pool drain on cancel, the real SIGINT handler path
 * (including the second-signal force-exit), and trainer/evaluator/DSE
 * deadline truncation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <string>
#include <vector>

#include "dse/optimizer.h"
#include "eval/evaluator.h"
#include "model/transformer.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "train/trainer.h"

namespace lrd {
namespace {

/** Clears the process-wide cancel state around each test. */
struct CancelGuard
{
    CancelGuard() { reset(); }
    ~CancelGuard() { reset(); }

    static void reset()
    {
        clearFaults();
        setRobustPolicy(RobustPolicy{});
        (void)takeNumericFault();
        clearCancelRequest();
        clearDeadline();
        resetSignalsForTest();
    }
};

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
    s.seed = 7;
    return s;
}

const World &
smallWorld()
{
    static World w(smallSpec());
    return w;
}

ModelConfig
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

TrainOptions
smallTrainOptions(int steps)
{
    TrainOptions t;
    t.steps = steps;
    t.batchSeqs = 4;
    t.seqLen = 24;
    t.warmupSteps = 2;
    t.logEvery = 0;
    return t;
}

// Run before any other suite (gtest schedules *DeathTest suites
// first), while no pool threads complicate the fork.
TEST(SignalDeathTest, SecondSignalForceExitsWith128PlusSigno)
{
    CancelGuard guard;
    EXPECT_EXIT(
        {
            installSignalHandlers();
            resetSignalsForTest();
            std::raise(SIGINT); // First: cooperative request.
            std::raise(SIGINT); // Second: _exit(130).
        },
        testing::ExitedWithCode(128 + SIGINT), "");
}

TEST(Cancel, TokenFirstCauseWinsAndClears)
{
    CancelGuard guard;
    EXPECT_FALSE(cancelRequested());
    EXPECT_EQ(cancelCause(), CancelCause::None);
    EXPECT_TRUE(cancelStatus("test.site").ok());

    requestCancel(CancelCause::Test, "first.site");
    requestCancel(CancelCause::Signal, "second.site"); // Loses.
    EXPECT_TRUE(cancelRequested());
    EXPECT_EQ(cancelCause(), CancelCause::Test);
    EXPECT_STREQ(cancelSite(), "first.site");

    const Status s = cancelStatus("observer");
    EXPECT_EQ(s.code(), StatusCode::Cancelled);
    EXPECT_NE(s.toString().find("first.site"), std::string::npos);

    clearCancelRequest();
    EXPECT_FALSE(cancelRequested());
    EXPECT_EQ(cancelCause(), CancelCause::None);
}

TEST(Cancel, CauseNamesAreStable)
{
    EXPECT_STREQ(cancelCauseName(CancelCause::None), "none");
    EXPECT_STREQ(cancelCauseName(CancelCause::Signal), "signal");
    EXPECT_STREQ(cancelCauseName(CancelCause::Deadline), "deadline");
    EXPECT_STREQ(cancelCauseName(CancelCause::Test), "test");
}

TEST(Deadline, ParsesAllThreeFlavors)
{
    Result<Deadline> r = parseDeadline("steps:5");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().kind, DeadlineKind::Steps);
    EXPECT_EQ(r.value().budget, 5);

    r = parseDeadline("items:120");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().kind, DeadlineKind::Items);
    EXPECT_EQ(r.value().budget, 120);

    r = parseDeadline("wall:1.5");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().kind, DeadlineKind::Wall);
    EXPECT_DOUBLE_EQ(r.value().wallSeconds, 1.5);
}

TEST(Deadline, CurrentReflectsArmAndClear)
{
    Result<Deadline> r = parseDeadline("steps:5");
    ASSERT_TRUE(r.ok());
    setDeadline(r.value());
    EXPECT_EQ(currentDeadline().kind, DeadlineKind::Steps);
    EXPECT_EQ(currentDeadline().budget, 5);
    clearDeadline();
    EXPECT_EQ(currentDeadline().kind, DeadlineKind::None);
}

TEST(Deadline, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseDeadline("").ok());
    EXPECT_FALSE(parseDeadline("steps").ok());
    EXPECT_FALSE(parseDeadline("steps:").ok());
    EXPECT_FALSE(parseDeadline("steps:0").ok());
    EXPECT_FALSE(parseDeadline("steps:-3").ok());
    EXPECT_FALSE(parseDeadline("steps:2x").ok());
    EXPECT_FALSE(parseDeadline("wall:0").ok());
    EXPECT_FALSE(parseDeadline("wall:nope").ok());
    EXPECT_FALSE(parseDeadline("epochs:4").ok());
}

TEST(Deadline, WorkBudgetAdmitsSeriallyAndExpires)
{
    CancelGuard guard;
    Deadline d;
    d.kind = DeadlineKind::Steps;
    d.budget = 5;
    setDeadline(d);

    EXPECT_EQ(consumeWorkBudget("steps", 3), 3);
    EXPECT_EQ(consumeWorkBudget("items", 9), 9); // Other unit: untouched.
    EXPECT_EQ(consumeWorkBudget("steps", 3), 2); // Partial admit.
    EXPECT_EQ(consumeWorkBudget("steps", 3), 0); // Dry.
    EXPECT_FALSE(cancelRequested()); // Consuming never cancels itself.

    expireDeadline("test.expiry");
    EXPECT_TRUE(cancelRequested());
    EXPECT_EQ(cancelCause(), CancelCause::Deadline);
    EXPECT_EQ(cancelStatus("test.expiry").code(),
              StatusCode::DeadlineExceeded);

    clearCancelRequest();
    clearDeadline();
    EXPECT_EQ(consumeWorkBudget("steps", 3), 3); // Disarmed: admit-all.
}

TEST(Deadline, WorkBudgetIgnoresParallelRegions)
{
    CancelGuard guard;
    ThreadPool::instance().resize(4);
    Deadline d;
    d.kind = DeadlineKind::Steps;
    d.budget = 1;
    setDeadline(d);

    // Inside chunk bodies every call admit-alls: nested consumers (a
    // DSE candidate's evaluator, say) must not drain the outer budget
    // in pool-schedule order.
    std::atomic<int64_t> admitted{0};
    parallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            admitted.fetch_add(consumeWorkBudget("steps", 1));
    });
    EXPECT_EQ(admitted.load(), 8);

    // The serial-point budget is untouched by all of that.
    EXPECT_EQ(consumeWorkBudget("steps", 1), 1);
    EXPECT_EQ(consumeWorkBudget("steps", 1), 0);
    ThreadPool::instance().resize(1);
}

TEST(Cancel, PoolDrainsUnclaimedChunksOnCancel)
{
    CancelGuard guard;
    for (int nThreads : {1, 4}) {
        ThreadPool::instance().resize(nThreads);

        requestCancel(CancelCause::Test, "test.drain");
        std::atomic<int64_t> ran{0};
        parallelFor(0, 64, 1,
                    [&](int64_t lo, int64_t hi) { ran += hi - lo; });
        EXPECT_EQ(ran.load(), 0) << "threads=" << nThreads;

        clearCancelRequest();
        parallelFor(0, 64, 1,
                    [&](int64_t lo, int64_t hi) { ran += hi - lo; });
        EXPECT_EQ(ran.load(), 64) << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);
}

TEST(Cancel, SignalHandlerRequestsCancellation)
{
    CancelGuard guard;
    installSignalHandlers();
    EXPECT_TRUE(signalHandlersInstalled());
    resetSignalsForTest();
    clearCancelRequest();

    std::raise(SIGINT);
    EXPECT_TRUE(cancelRequested());
    EXPECT_EQ(cancelCause(), CancelCause::Signal);
    EXPECT_EQ(signalsSeen(), 1);
    EXPECT_EQ(cancelStatus("after.signal").code(), StatusCode::Cancelled);
}

TEST(Cancel, ExitCodesMapEveryDocumentedOutcome)
{
    EXPECT_EQ(exitCodeForStatus(Status()), kExitOk);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::ResourceExhausted,
                                       "s", "m")),
              kExitDegraded);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::Cancelled, "s", "m")),
              kExitCancelled);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::DeadlineExceeded,
                                       "s", "m")),
              kExitDeadline);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::DataLoss, "s", "m")),
              kExitCorruptCheckpoint);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::NonConvergence,
                                       "s", "m")),
              kExitNonConvergence);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::Unavailable, "s", "m")),
              kExitUnavailable);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::Internal, "s", "m")),
              kExitError);
    EXPECT_EQ(exitCodeForStatus(Status(StatusCode::InvalidArgument,
                                       "s", "m")),
              kExitError);
}

TEST(Deadline, TrainerStepsBudgetIsBitwiseDeterministicAcrossThreads)
{
    CancelGuard guard;
    std::vector<uint8_t> reference;
    for (int nThreads : {1, 4, 8}) {
        ThreadPool::instance().resize(nThreads);
        Deadline d;
        d.kind = DeadlineKind::Steps;
        d.budget = 5;
        setDeadline(d);

        TransformerModel model(smallConfig(), 31);
        Trainer trainer(model, smallWorld(), smallTrainOptions(10));
        trainer.run();
        clearDeadline();
        clearCancelRequest();

        EXPECT_EQ(trainer.runStatus().code(), StatusCode::DeadlineExceeded)
            << "threads=" << nThreads;
        // The same five optimizer steps ran, whatever the thread
        // count: the budget is only consumed at the serial top of a
        // step, so expiry lands on the same step everywhere.
        if (reference.empty())
            reference = model.serialize();
        else
            EXPECT_EQ(model.serialize(), reference)
                << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);
}

TEST(Deadline, EvaluatorItemsBudgetIsDeterministicAcrossThreads)
{
    CancelGuard guard;
    TransformerModel model(smallConfig(), 42);
    Evaluator ev(model, smallWorld(), EvalOptions{12, 5, false});

    int referenceCorrect = -1;
    for (int nThreads : {1, 4, 8}) {
        ThreadPool::instance().resize(nThreads);
        Deadline d;
        d.kind = DeadlineKind::Items;
        d.budget = 5;
        setDeadline(d);

        const EvalResult r = ev.run(BenchmarkKind::ArcEasy);
        clearDeadline();
        clearCancelRequest();

        EXPECT_EQ(r.numTasks, 12) << "threads=" << nThreads;
        EXPECT_EQ(r.numSkipped, 7) << "threads=" << nThreads;
        EXPECT_TRUE(r.partial());
        EXPECT_EQ(r.status.code(), StatusCode::DeadlineExceeded)
            << "threads=" << nThreads;
        // The admitted prefix is always items [0, 5): the scored set
        // (and so the accuracy) cannot depend on the thread count.
        if (referenceCorrect < 0)
            referenceCorrect = r.numCorrect;
        else
            EXPECT_EQ(r.numCorrect, referenceCorrect)
                << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);
}

TEST(Deadline, DseStepsBudgetTruncatesTheSweep)
{
    CancelGuard guard;
    ThreadPool::instance().resize(4);
    const std::vector<uint8_t> bytes = [] {
        TransformerModel model(smallConfig(), 17);
        return model.serialize();
    }();

    OptimizerOptions opts;
    opts.evalTasks = 6;
    opts.accuracyDropTolerance = 1.1;

    Deadline d;
    d.kind = DeadlineKind::Steps;
    d.budget = 2;
    setDeadline(d);
    const OptimizerResult r =
        optimizeDecomposition(bytes, smallWorld(), opts);
    clearDeadline();
    clearCancelRequest();

    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(r.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(r.explored.size(), 2U); // Exactly the admitted prefix.
    ThreadPool::instance().resize(1);
}

} // namespace
} // namespace lrd
