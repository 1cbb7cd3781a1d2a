/**
 * @file
 * Persistent thread pool with a deterministic parallel-for primitive.
 *
 * Design rules (see docs/ARCHITECTURE.md, "Threading model"):
 *
 * - One process-wide pool, created on first use and sized by the
 *   LRD_THREADS environment variable (default: hardware concurrency;
 *   a value outside [1, 4096] is fatal).
 * - parallelFor() splits [begin, end) into fixed chunks of `grain`
 *   iterations. The chunk boundaries depend only on (begin, end,
 *   grain) — never on the thread count — so any parallel region whose
 *   chunks write disjoint outputs (or that reduces per-chunk partials
 *   in chunk order) produces bitwise-identical results at any thread
 *   count.
 * - Nested parallelFor() calls run inline and serially on the calling
 *   thread; only the outermost region fans out.
 * - Only item loops open a region (evaluator items, the serve batch,
 *   DSE candidates, FactorBank slots, trainer batch items); kernels
 *   and layers run serially inside the item that calls them.
 * - There is no work stealing and no dynamic splitting: chunks are
 *   handed out from a shared cursor, so which *thread* runs a chunk
 *   is nondeterministic, but what the chunk *computes* is not.
 */

#ifndef LRD_PARALLEL_THREAD_POOL_H
#define LRD_PARALLEL_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lrd {

class Counter;
class Gauge;

class ThreadPool
{
  public:
    /**
     * The process-wide pool. Created on first use with
     * threadCountFromEnv() threads.
     */
    static ThreadPool &instance();

    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total threads that execute chunks (workers + the caller). */
    int numThreads() const { return numThreads_; }

    /**
     * Re-size the pool (joins and respawns workers). Intended for
     * tests and benchmarks; must not be called from inside a parallel
     * region.
     */
    void resize(int n);

    /**
     * Index of the calling thread for worker-local storage: 0 for the
     * thread that issued the parallelFor (and for any external
     * thread), 1..numThreads()-1 for pool workers. Stable for the
     * lifetime of a worker thread.
     */
    static int workerIndex();

    /**
     * Run body(lo, hi) over fixed chunks of [begin, end). Blocks until
     * every chunk has completed. Safe to call from inside another
     * parallel region (runs inline and serially in that case).
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &body);

    /** Number of chunks parallelFor will create. */
    static int64_t numChunks(int64_t begin, int64_t end, int64_t grain);

  private:
    explicit ThreadPool(int n);

    void spawnWorkers();
    void joinWorkers();
    void workerMain(int index);
    /** Grab-and-run loop shared by workers and the posting thread. */
    void runAvailableChunks(std::unique_lock<std::mutex> &lock);

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< Wakes workers when a job lands.
    std::condition_variable doneCv_; ///< Wakes posters on completion.

    // Current job; guarded by mu_. One job at a time: concurrent
    // external posters queue on doneCv_, nested posters run inline.
    const std::function<void(int64_t, int64_t)> *body_ = nullptr;
    int64_t jobBegin_ = 0;
    int64_t jobEnd_ = 0;
    int64_t jobGrain_ = 1;
    int64_t jobChunks_ = 0;
    int64_t nextChunk_ = 0;
    int64_t chunksLeft_ = 0;
    /** First exception thrown by a chunk body; rethrown by the poster. */
    std::exception_ptr jobError_;

    bool shutdown_ = false;
    int numThreads_ = 1;
    /** Workers that have finished startup (lane + trace marker);
     *  spawnWorkers blocks until all have checked in. */
    int workersStarted_ = 0;
    std::vector<std::thread> workers_;

    // Metric handles, resolved once in the constructor (before any
    // worker spawns) so the hot path never touches the registry lock.
    Counter *chunksCounter_ = nullptr;    ///< "pool.chunks": outermost, per lane.
    Counter *idleWaitsCounter_ = nullptr; ///< "pool.idleWaits".
    Gauge *threadsGauge_ = nullptr;       ///< "pool.threads".
};

/** parallelFor on the global pool. */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)> &body);

/** Thread count of the global pool. */
int parallelWorkers();

/**
 * Hardware thread count (>= 1). The one sanctioned way to ask the
 * machine for its concurrency outside src/parallel/ — everything
 * else about threading goes through the pool.
 */
int hardwareConcurrency();

/**
 * The pool size LRD_THREADS names, or hardwareConcurrency() when it is
 * unset. @throws std::runtime_error (via fatal()) naming LRD_THREADS
 * when the value is not an integer in [1, 4096].
 */
int threadCountFromEnv();

} // namespace lrd

#endif // LRD_PARALLEL_THREAD_POOL_H
