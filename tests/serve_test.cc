/**
 * @file
 * Tests for the serving layer: the graceful-degradation ladder's
 * hysteresis, workload generation/loading, end-to-end server runs
 * (exactly-once settlement, FIFO service, the queue bound and
 * injected admission faults, deadline excision, bitwise determinism
 * across thread-pool sizes), client-side backoff, and a chaos sweep
 * over every serve.* fault site and kind.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/transformer.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "robust/signal.h"
#include "serve/load_control.h"
#include "serve/server.h"
#include "serve/workload.h"

using namespace lrd;
namespace fs = std::filesystem;

namespace {

/** Disarms faults / cancel state around each fault-driving test. */
struct ServeGuard
{
    ServeGuard() { reset(); }
    ~ServeGuard() { reset(); }

    static void reset()
    {
        clearFaults();
        clearCancelRequest();
        resetSignalsForTest();
    }
};

ModelConfig
serveConfig()
{
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = 64;
    cfg.dModel = 32;
    cfg.nHeads = 4;
    cfg.dFf = 64;
    cfg.nLayers = 2;
    cfg.maxSeq = 48;
    return cfg;
}

WorkloadOptions
smallWorkload(int n)
{
    WorkloadOptions w;
    w.numRequests = n;
    w.maxContextLen = 6;
    w.maxContinuationLen = 3;
    w.deadlineTicks = 256;
    return w;
}

/** Outcome counts must partition the workload exactly. */
void
expectExactlyOnce(const ServeReport &r, size_t n)
{
    ASSERT_EQ(r.responses.size(), n);
    int64_t settled = 0;
    for (size_t i = 0; i < r.responses.size(); ++i) {
        const ServeResponse &resp = r.responses[i];
        EXPECT_EQ(resp.id, static_cast<int64_t>(i));
        EXPECT_TRUE(serveOutcomeTerminal(resp.outcome))
            << "request " << i << " never settled";
        ++settled;
    }
    const ServeStats &s = r.stats;
    EXPECT_EQ(s.responded + s.shed + s.deadlineMissed + s.cancelled +
                  s.unavailable,
              settled);
}

} // namespace

// ---------------------------------------------------------------------
// Degradation ladder

TEST(ServeLadder, HysteresisStepsUpAndDown)
{
    LoadController lc;
    EXPECT_EQ(lc.update(0, 16), ServiceLevel::Normal);
    EXPECT_EQ(lc.update(7, 16), ServiceLevel::Normal); // below 0.5
    EXPECT_EQ(lc.update(8, 16), ServiceLevel::BatchShrink);
    // Inside the hysteresis band: no flap.
    EXPECT_EQ(lc.update(7, 16), ServiceLevel::BatchShrink);
    EXPECT_EQ(lc.update(12, 16), ServiceLevel::BatchShrink); // below 0.8
    EXPECT_EQ(lc.update(13, 16), ServiceLevel::RankFallback);
    EXPECT_TRUE(lc.useFallbackModel());
    // Must fall below fallbackLow (0.5) to leave RankFallback.
    EXPECT_EQ(lc.update(8, 16), ServiceLevel::RankFallback);
    EXPECT_EQ(lc.update(7, 16), ServiceLevel::BatchShrink);
    // And below shrinkLow (0.25) to return to Normal.
    EXPECT_EQ(lc.update(4, 16), ServiceLevel::BatchShrink);
    EXPECT_EQ(lc.update(3, 16), ServiceLevel::Normal);
}

TEST(ServeLadder, BatchCeilingHalvesUnderShrink)
{
    LoadController lc;
    EXPECT_EQ(lc.maxBatch(8), 8);
    lc.update(8, 16); // -> BatchShrink
    EXPECT_EQ(lc.maxBatch(8), 4);
    EXPECT_EQ(lc.maxBatch(1), 1) << "ceiling never drops below 1";
    lc.update(16, 16); // -> RankFallback
    EXPECT_EQ(lc.maxBatch(8), 4);
}

TEST(ServeLadder, LevelNamesAreStable)
{
    EXPECT_STREQ(serviceLevelName(ServiceLevel::Normal), "normal");
    EXPECT_STREQ(serviceLevelName(ServiceLevel::BatchShrink),
                 "batch-shrink");
    EXPECT_STREQ(serviceLevelName(ServiceLevel::RankFallback),
                 "rank-fallback");
}

// ---------------------------------------------------------------------
// Client-side backoff

TEST(ServeBackoff, ExponentialAndCapped)
{
    EXPECT_EQ(backoffTicks(2, 0), 2);
    EXPECT_EQ(backoffTicks(2, 1), 4);
    EXPECT_EQ(backoffTicks(2, 3), 16);
    EXPECT_EQ(backoffTicks(2, 40, 1024), 1024) << "cap applies";
    EXPECT_EQ(backoffTicks(0, 5), 0) << "zero base disables backoff";
}

// ---------------------------------------------------------------------
// Workloads

TEST(ServeWorkload, SyntheticIsDeterministicAndWellFormed)
{
    const ModelConfig cfg = serveConfig();
    WorkloadOptions opts = smallWorkload(16);
    opts.maxArrivalGapTicks = 3;
    const std::vector<ServeRequest> a = makeSyntheticWorkload(cfg, opts);
    const std::vector<ServeRequest> b = makeSyntheticWorkload(cfg, opts);
    ASSERT_EQ(a.size(), 16u);
    int64_t lastArrival = 0;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        EXPECT_EQ(a[i].context, b[i].context);
        EXPECT_EQ(a[i].continuation, b[i].continuation);
        EXPECT_EQ(a[i].arrivalTick, b[i].arrivalTick);
        EXPECT_GE(a[i].arrivalTick, lastArrival);
        lastArrival = a[i].arrivalTick;
        EXPECT_EQ(a[i].deadlineTick,
                  a[i].arrivalTick + opts.deadlineTicks);
        EXPECT_FALSE(a[i].context.empty());
        EXPECT_FALSE(a[i].continuation.empty());
        for (int tok : a[i].context)
            EXPECT_LT(tok, cfg.vocabSize);
    }
}

TEST(ServeWorkload, JsonlLoaderParsesAndValidates)
{
    const fs::path path =
        fs::temp_directory_path() / "lrd_serve_workload.jsonl";
    {
        std::ofstream out(path);
        out << R"({"context": [1, 2, 3], "continuation": [4]})" << "\n"
            << R"({"context": [5], "continuation": [6, 7],)"
            << R"( "tenant": 2, "arrival": 3, "deadline": 40})" << "\n";
    }
    const Result<std::vector<ServeRequest>> r =
        loadWorkloadFile(path.string(), 10);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    ASSERT_EQ(r.value().size(), 2u);
    EXPECT_EQ(r.value()[0].context, (TokenSeq{1, 2, 3}));
    EXPECT_EQ(r.value()[0].deadlineTick, 10); // arrival 0 + default
    EXPECT_EQ(r.value()[1].tenant, 2);
    EXPECT_EQ(r.value()[1].arrivalTick, 3);
    EXPECT_EQ(r.value()[1].deadlineTick, 40);

    {
        std::ofstream out(path);
        out << R"({"context": [], "continuation": [1]})" << "\n";
    }
    const Result<std::vector<ServeRequest>> bad =
        loadWorkloadFile(path.string(), 10);
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);

    const Result<std::vector<ServeRequest>> missing =
        loadWorkloadFile((fs::temp_directory_path() /
                          "lrd_serve_no_such_file.jsonl")
                             .string(),
                         10);
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::NotFound);
    fs::remove(path);
}

// ---------------------------------------------------------------------
// Server end-to-end

TEST(Server, ServesEveryRequestExactlyOnce)
{
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 8;
    opts.maxBatch = 4;
    Server server(model, opts);
    const ServeReport r =
        server.run(makeSyntheticWorkload(serveConfig(), smallWorkload(12)));
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    expectExactlyOnce(r, 12);
    EXPECT_EQ(r.stats.responded, 12);
    EXPECT_EQ(r.stats.shed, 0);
    for (const ServeResponse &resp : r.responses) {
        EXPECT_EQ(resp.outcome, ServeOutcome::Responded);
        EXPECT_TRUE(std::isfinite(resp.score));
        EXPECT_FALSE(resp.degraded);
    }
}

TEST(Server, OverloadShedsTerminallyAtQueueBound)
{
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 2;
    opts.maxBatch = 1;
    opts.maxClientAttempts = 1; // no backoff: shed is immediate
    Server server(model, opts);
    const ServeReport r = server.run(
        makeSyntheticWorkload(serveConfig(), smallWorkload(12)));
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    expectExactlyOnce(r, 12);
    // The whole burst is offered at tick 0, before any batch pops.
    EXPECT_EQ(r.stats.admitted, opts.queueCapacity)
        << "admission must stop exactly at the queue bound";
    EXPECT_EQ(r.stats.shed, 12 - opts.queueCapacity);
    EXPECT_EQ(r.stats.responded, opts.queueCapacity);
    for (const ServeResponse &resp : r.responses) {
        if (resp.outcome == ServeOutcome::Shed) {
            EXPECT_EQ(resp.status.code(), StatusCode::ResourceExhausted);
        }
    }
}

TEST(Server, InjectedAdmitFaultShedsLikeOverload)
{
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 16; // a 12-burst never fills it
    opts.maxBatch = 4;
    opts.maxClientAttempts = 1;
    Server server(model, opts);
    setFault(FaultSpec{"serve.admit", FaultKind::Alloc, 1});
    const ServeReport r = server.run(
        makeSyntheticWorkload(serveConfig(), smallWorkload(12)));
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    expectExactlyOnce(r, 12);
    EXPECT_EQ(r.responses[0].outcome, ServeOutcome::Shed)
        << "the first offer takes the injected fault";
    EXPECT_EQ(r.responses[0].status.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(r.stats.shed, 1);
    EXPECT_EQ(r.stats.responded, 11);
}

TEST(Server, ClientBackoffRecoversAdmission)
{
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 2;
    opts.maxBatch = 2;
    opts.maxClientAttempts = 8;
    opts.retryBackoffBaseTicks = 1;
    Server server(model, opts);
    const ServeReport r = server.run(
        makeSyntheticWorkload(serveConfig(), smallWorkload(12)));
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    expectExactlyOnce(r, 12);
    EXPECT_GT(r.stats.clientRetries, 0);
    EXPECT_EQ(r.stats.responded, 12)
        << "with enough attempts every request eventually lands";
}

TEST(Server, ExpiredDeadlinesAreExcisedNotScored)
{
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 32;
    opts.maxBatch = 1; // one per tick: the burst's tail must expire
    opts.maxClientAttempts = 1;
    Server server(model, opts);
    WorkloadOptions wl = smallWorkload(10);
    wl.deadlineTicks = 3;
    const ServeReport r =
        server.run(makeSyntheticWorkload(serveConfig(), wl));
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    expectExactlyOnce(r, 10);
    EXPECT_GT(r.stats.deadlineMissed, 0);
    EXPECT_GT(r.stats.responded, 0);
    // FIFO: the burst arrives in id order and one request is served
    // per tick, so responded requests settle at increasing ticks.
    int64_t lastSettled = -1;
    for (const ServeResponse &resp : r.responses) {
        if (resp.outcome == ServeOutcome::DeadlineMissed) {
            EXPECT_EQ(resp.status.code(), StatusCode::DeadlineExceeded);
        }
        if (resp.outcome == ServeOutcome::Responded) {
            EXPECT_GT(resp.settledTick, lastSettled)
                << "request " << resp.id << " served out of order";
            lastSettled = resp.settledTick;
        }
    }
}

TEST(Server, DeadlineExpiredInClientBackoffIsCounted)
{
    // Eight attempts at the default backoff (2, 4, 8, ... ticks) add up
    // to more than the default 64-tick deadline, so requests the tiny
    // queue keeps shedding come back from backoff already expired.
    // Those settle at admission, and ServeStats must still count them.
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 2;
    opts.maxBatch = 1;
    opts.maxClientAttempts = 8;
    Server server(model, opts);
    WorkloadOptions wl = smallWorkload(48);
    wl.deadlineTicks = opts.defaultDeadlineTicks;
    const ServeReport r =
        server.run(makeSyntheticWorkload(serveConfig(), wl));
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    int64_t expiredInBackoff = 0;
    for (const ServeResponse &resp : r.responses)
        if (resp.outcome == ServeOutcome::DeadlineMissed
            && std::string(resp.status.site()) == "serve.admit")
            ++expiredInBackoff;
    EXPECT_GT(expiredInBackoff, 0)
        << "the workload must exercise the expired-in-backoff path";
    expectExactlyOnce(r, 48);
}

TEST(Server, DegradationLadderEngagesUnderBurst)
{
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 8;
    opts.maxBatch = 4;
    opts.fallbackRank = 2;
    opts.maxClientAttempts = 8;
    Server server(model, opts);
    ASSERT_TRUE(server.hasFallbackModel());
    const ServeReport r = server.run(
        makeSyntheticWorkload(serveConfig(), smallWorkload(24)));
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    expectExactlyOnce(r, 24);
    EXPECT_EQ(r.stats.maxServiceLevel,
              static_cast<int64_t>(ServiceLevel::RankFallback))
        << "a 24-burst into an 8-deep queue must reach rank fallback";
    EXPECT_GT(r.stats.degradedResponses, 0)
        << "some requests must be scored by the fallback variant";
    bool sawDegraded = false;
    for (const ServeResponse &resp : r.responses)
        sawDegraded = sawDegraded || resp.degraded;
    EXPECT_TRUE(sawDegraded);
}

TEST(Server, ResponsesBitwiseIdenticalAcrossThreadCounts)
{
    ServeGuard guard;
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 8;
    opts.maxBatch = 4;
    opts.fallbackRank = 2;
    opts.maxClientAttempts = 8;
    WorkloadOptions wl = smallWorkload(24);
    wl.maxArrivalGapTicks = 1;

    std::vector<ServeResponse> baseline;
    for (const int threads : {1, 4, 8}) {
        ThreadPool::instance().resize(threads);
        Server server(model, opts);
        const ServeReport r =
            server.run(makeSyntheticWorkload(serveConfig(), wl));
        ASSERT_TRUE(r.status.ok()) << r.status.toString();
        expectExactlyOnce(r, 24);
        if (baseline.empty()) {
            baseline = r.responses;
            continue;
        }
        for (size_t i = 0; i < baseline.size(); ++i) {
            SCOPED_TRACE("request " + std::to_string(i) + " at " +
                         std::to_string(threads) + " threads");
            EXPECT_EQ(r.responses[i].outcome, baseline[i].outcome);
            // Bitwise, not approximate: every worker scores its own
            // items on the one shared model, in a fixed order.
            EXPECT_EQ(r.responses[i].score, baseline[i].score);
            EXPECT_EQ(r.responses[i].degraded, baseline[i].degraded);
            EXPECT_EQ(r.responses[i].settledTick,
                      baseline[i].settledTick);
        }
    }
    ThreadPool::instance().resize(1);
}

TEST(Server, BatchCancelDeliversEarlierBatchesAndDrainsTheRest)
{
    ServeGuard guard;
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 32;
    opts.maxBatch = 4;
    const std::vector<ServeRequest> workload =
        makeSyntheticWorkload(serveConfig(), smallWorkload(16));

    // The uninterrupted run, and the requests it answered in its first
    // two batches (one batch per tick, so the two earliest ticks).
    ThreadPool::instance().resize(1);
    const ServeReport clean = Server(model, opts).run(workload);
    ASSERT_TRUE(clean.status.ok()) << clean.status.toString();
    std::set<int64_t> batchTicks;
    for (const ServeResponse &resp : clean.responses)
        if (resp.outcome == ServeOutcome::Responded)
            batchTicks.insert(resp.settledTick);
    ASSERT_GE(batchTicks.size(), 3u);
    const int64_t secondBatchTick = *std::next(batchTicks.begin());
    int64_t firstTwo = 0;
    for (const ServeResponse &resp : clean.responses)
        firstTwo += resp.outcome == ServeOutcome::Responded
                    && resp.settledTick <= secondBatchTick;

    for (int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ServeGuard::reset();
        ThreadPool::instance().resize(threads);
        // The kill lands as the third batch is formed: the two before
        // it respond exactly as in the clean run, and the third drains
        // with everything after it.
        setFault(FaultSpec{"serve.batch", FaultKind::Cancel, 3});
        const ServeReport r = Server(model, opts).run(workload);
        EXPECT_EQ(r.status.code(), StatusCode::Cancelled)
            << r.status.toString();
        expectExactlyOnce(r, 16);
        EXPECT_EQ(r.stats.responded, firstTwo);
        EXPECT_EQ(r.stats.cancelled, 16 - firstTwo);
        for (size_t i = 0; i < r.responses.size(); ++i) {
            if (r.responses[i].outcome != ServeOutcome::Responded)
                continue;
            EXPECT_EQ(r.responses[i].score, clean.responses[i].score)
                << "request " << i;
            EXPECT_EQ(r.responses[i].settledTick,
                      clean.responses[i].settledTick)
                << "request " << i;
        }
    }
    ThreadPool::instance().resize(1);
}

// ---------------------------------------------------------------------
// Chaos: every serve.* site and kind, including mid-batch cancel

TEST(ServeChaos, EverySiteAndKindDrainsWithoutLosingRequests)
{
    ServeGuard guard;
    ThreadPool::instance().resize(2);
    TransformerModel model(serveConfig(), 42);

    struct ChaosCase
    {
        std::string site;
        FaultKind kind;
    };
    const std::vector<ChaosCase> cases = {
        {"serve.admit", FaultKind::Alloc},
        {"serve.admit", FaultKind::Cancel},
        {"serve.batch", FaultKind::Nan},
        {"serve.batch", FaultKind::Cancel},
        {"serve.respond", FaultKind::Alloc},
        {"serve.respond", FaultKind::Cancel},
    };

    for (const ChaosCase &c : cases) {
        SCOPED_TRACE(std::string(c.site) + " kind " +
                     std::to_string(static_cast<int>(c.kind)));
        ServeGuard::reset();
        ServeOptions opts;
        opts.queueCapacity = 8;
        opts.maxBatch = 2;
        opts.maxClientAttempts = 2;
        Server server(model, opts);
        setFault(FaultSpec{c.site, c.kind, 2});
        if (c.site == "serve.respond" && c.kind == FaultKind::Alloc) {
            // Fail every delivery attempt of one response -> Unavailable.
            setFault(FaultSpec{c.site, c.kind, 3});
            setFault(FaultSpec{c.site, c.kind, 4});
        }
        const ServeReport r = server.run(
            makeSyntheticWorkload(serveConfig(), smallWorkload(10)));
        // The invariant under ANY injected fault: the run terminates
        // (no deadlock — this test finishing is the assertion), every
        // request settles exactly once, and the report is coherent.
        expectExactlyOnce(r, 10);
        if (c.kind == FaultKind::Cancel) {
            EXPECT_EQ(r.status.code(), StatusCode::Cancelled);
            EXPECT_GT(r.stats.cancelled, 0);
        } else {
            ASSERT_TRUE(r.status.ok()) << r.status.toString();
        }
        if (c.site == "serve.respond" && c.kind == FaultKind::Alloc) {
            EXPECT_EQ(r.stats.unavailable, 1);
            EXPECT_EQ(exitCodeForStatus(Status(StatusCode::Unavailable,
                                               "serve.respond", "")),
                      kExitUnavailable);
        }
        if (c.site == "serve.batch" && c.kind == FaultKind::Nan) {
            // The poisoned item settles as Responded with a NonFinite
            // status; nothing downstream consumes the NaN.
            int64_t poisoned = 0;
            for (const ServeResponse &resp : r.responses)
                poisoned += resp.status.code() == StatusCode::NonFinite;
            EXPECT_EQ(poisoned, 1);
        }
    }
    ThreadPool::instance().resize(1);
}

TEST(ServeChaos, SigintMidRunDrainsAsCancelled)
{
    ServeGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(serveConfig(), 42);
    ServeOptions opts;
    opts.queueCapacity = 16;
    opts.maxBatch = 2;
    Server server(model, opts);
    // Simulate the first SIGINT mid-run via the cancel token (the
    // handler itself is exercised by scripts/serve_chaos.sh, which
    // sends exactly one real SIGINT with `timeout --foreground -s INT`).
    setFault(FaultSpec{"serve.batch", FaultKind::Cancel, 3});
    const ServeReport r = server.run(
        makeSyntheticWorkload(serveConfig(), smallWorkload(16)));
    EXPECT_EQ(r.status.code(), StatusCode::Cancelled);
    expectExactlyOnce(r, 16);
    EXPECT_GT(r.stats.responded, 0)
        << "batches accepted before the signal still respond";
    EXPECT_GT(r.stats.cancelled, 0);
    EXPECT_EQ(exitCodeForStatus(r.status), kExitCancelled);
}

TEST(ServeChaos, RegistryListsEveryServeSite)
{
    // `lrdtool faults` documents what chaos runs can target; a serve
    // site missing here would make scripts/serve_chaos.sh rot.
    std::set<std::string> sites;
    for (const FaultSiteInfo &info : registeredFaultSites())
        sites.insert(info.site);
    for (const char *site : {"serve.admit", "serve.batch", "serve.respond"})
        EXPECT_TRUE(sites.count(site)) << site << " not registered";
}
