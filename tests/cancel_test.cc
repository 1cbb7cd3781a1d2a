/**
 * @file
 * Tests for cooperative cancellation and signal handling: token
 * semantics (first cause wins), pool drain on cancel, the real SIGINT
 * handler path (including the second-signal force-exit), and the
 * Status -> exit-code map.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <string>

#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"

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
        resetSignalsForTest();
    }
};

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
    EXPECT_STREQ(cancelCauseName(CancelCause::Test), "test");
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

} // namespace
} // namespace lrd
