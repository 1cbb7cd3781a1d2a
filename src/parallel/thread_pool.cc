#include "thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "util/logging.h"
#include "util/worker_lane.h"

namespace lrd {

namespace {

/** True while this thread runs (or posts) a parallel-region chunk. */
thread_local bool tlInParallel = false;

} // namespace

int
threadCountFromEnv()
{
    const char *env = std::getenv("LRD_THREADS");
    if (env == nullptr)
        return hardwareConcurrency();
    char *end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > 4096)
        fatal(strCat("LRD_THREADS='", env,
                     "' is not a thread count in [1, 4096]"));
    return static_cast<int>(v);
}

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool(threadCountFromEnv());
    return pool;
}

ThreadPool::ThreadPool(int n) : numThreads_(n > 0 ? n : 1)
{
    // Resolve metric handles before any worker can run a chunk.
    MetricsRegistry &reg = MetricsRegistry::instance();
    chunksCounter_ = reg.counter("pool.chunks", /*perLane=*/true);
    idleWaitsCounter_ = reg.counter("pool.idleWaits");
    threadsGauge_ = reg.gauge("pool.threads");
    threadsGauge_->set(numThreads_);
    spawnWorkers();
}

ThreadPool::~ThreadPool()
{
    joinWorkers();
}

void
ThreadPool::spawnWorkers()
{
    workersStarted_ = 0;
    workers_.reserve(static_cast<size_t>(numThreads_ - 1));
    for (int i = 1; i < numThreads_; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });
    // Wait for every worker to finish startup (set its lane, record
    // its trace marker): exported traces then always show one lane
    // per worker, even for runs that never dispatch a chunk.
    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock,
                 [this] { return workersStarted_ == numThreads_ - 1; });
}

void
ThreadPool::joinWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    shutdown_ = false;
}

void
ThreadPool::resize(int n)
{
    require(!tlInParallel && workerLane() == 0,
            "ThreadPool::resize: cannot resize from inside a parallel "
            "region");
    require(n >= 1, "ThreadPool::resize: thread count must be >= 1");
    {
        std::lock_guard<std::mutex> lock(mu_);
        require(body_ == nullptr,
                "ThreadPool::resize: a parallel region is active");
    }
    if (n == numThreads_)
        return;
    joinWorkers();
    numThreads_ = n;
    threadsGauge_->set(numThreads_);
    spawnWorkers();
}

int
ThreadPool::workerIndex()
{
    return workerLane();
}

int64_t
ThreadPool::numChunks(int64_t begin, int64_t end, int64_t grain)
{
    if (end <= begin)
        return 0;
    const int64_t g = grain > 0 ? grain : 1;
    return (end - begin + g - 1) / g;
}

void
ThreadPool::runAvailableChunks(std::unique_lock<std::mutex> &lock)
{
    while (body_ != nullptr && nextChunk_ < jobChunks_) {
        // Cooperative drain: once cancellation is requested, unclaimed
        // chunks are dropped (in-flight ones finish normally) and the
        // poster wakes with the region "complete". Callers observe the
        // token after the region and discard partial output.
        if (cancelRequested()) {
            chunksLeft_ -= jobChunks_ - nextChunk_;
            nextChunk_ = jobChunks_;
            if (chunksLeft_ == 0) {
                body_ = nullptr;
                doneCv_.notify_all();
            }
            break;
        }
        const int64_t chunk = nextChunk_++;
        const std::function<void(int64_t, int64_t)> *body = body_;
        const int64_t lo = jobBegin_ + chunk * jobGrain_;
        const int64_t hi = std::min(jobEnd_, lo + jobGrain_);
        lock.unlock();
        const bool wasIn = tlInParallel;
        tlInParallel = true;
        chunksCounter_->inc();
        std::exception_ptr error;
        try {
            LRD_TRACE_SPAN("pool.chunk");
            (*body)(lo, hi);
        } catch (...) {
            error = std::current_exception();
        }
        tlInParallel = wasIn;
        lock.lock();
        if (error && !jobError_)
            jobError_ = error;
        if (--chunksLeft_ == 0) {
            body_ = nullptr;
            doneCv_.notify_all();
        }
    }
}

void
ThreadPool::workerMain(int index)
{
    setWorkerLane(index);
    // A zero-length marker event puts one lane per worker into the
    // exported trace even when this worker never receives a chunk.
    if (Tracer::enabled())
        Tracer::instance().record("pool.workerStart", Tracer::nowNs(),
                                  0, 0.0, false);
    std::unique_lock<std::mutex> lock(mu_);
    ++workersStarted_;
    doneCv_.notify_all();
    for (;;) {
        runAvailableChunks(lock);
        if (shutdown_)
            return;
        idleWaitsCounter_->inc();
        workCv_.wait(lock, [this] {
            return shutdown_
                   || (body_ != nullptr && nextChunk_ < jobChunks_);
        });
    }
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)> &body)
{
    const int64_t chunks = numChunks(begin, end, grain);
    if (chunks == 0)
        return;
    const int64_t g = grain > 0 ? grain : 1;

    // Serial cases: a single chunk, a 1-thread pool, or a nested call
    // from inside a running region. Chunk boundaries are identical to
    // the parallel path, so results are bitwise the same. Only an
    // outermost region counts and traces its chunks, as the pooled
    // path does: nested chunks run inline and record nothing.
    if (chunks == 1 || numThreads_ == 1 || tlInParallel
        || workerLane() != 0) {
        const bool wasIn = tlInParallel;
        const bool outermost = !wasIn && workerLane() == 0;
        tlInParallel = true;
        try {
            for (int64_t c = 0; c < chunks; ++c) {
                if (cancelRequested())
                    break; // Same drain semantics as the pooled path.
                const int64_t lo = begin + c * g;
                const int64_t hi = std::min(end, lo + g);
                if (!outermost) {
                    body(lo, hi);
                    continue;
                }
                chunksCounter_->inc();
                LRD_TRACE_SPAN("pool.chunk");
                body(lo, hi);
            }
        } catch (...) {
            tlInParallel = wasIn;
            throw; // lrd-lint: allow(naked-throw) -- rethrow, not a report
        }
        tlInParallel = wasIn;
        return;
    }

    std::unique_lock<std::mutex> lock(mu_);
    // One job at a time: a concurrent poster from another external
    // thread waits for the active job to drain.
    doneCv_.wait(lock, [this] { return body_ == nullptr; });
    body_ = &body;
    jobBegin_ = begin;
    jobEnd_ = end;
    jobGrain_ = g;
    jobChunks_ = chunks;
    nextChunk_ = 0;
    chunksLeft_ = chunks;
    jobError_ = nullptr;
    workCv_.notify_all();

    runAvailableChunks(lock);
    doneCv_.wait(lock, [this, &body] { return body_ != &body; });
    if (jobError_) {
        std::exception_ptr error = jobError_;
        jobError_ = nullptr;
        std::rethrow_exception(error);
    }
}

void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const std::function<void(int64_t, int64_t)> &body)
{
    ThreadPool::instance().parallelFor(begin, end, grain, body);
}

int
parallelWorkers()
{
    return ThreadPool::instance().numThreads();
}

int
hardwareConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace lrd
