/**
 * @file
 * The request server: a single control loop that admits into a
 * bounded FIFO queue, steps the degradation ladder, feeds the
 * continuous batcher, schedules client-side retry, and drains
 * gracefully — one deterministic scheduler.
 *
 * Control-loop contract: every scheduling decision — admit/shed,
 * ladder transitions, batch membership, deadline excision, drain —
 * happens on the control thread at tick boundaries, outside any
 * parallel region. The thread pool is entered only inside
 * Batcher::execute, where items are independent, write fixed slots
 * and share the one model (or its fallback variant). Together this
 * makes the full response vector, including which requests were shed
 * or missed their deadline, bitwise identical at any LRD_THREADS.
 *
 * Robustness integration:
 *  - SIGINT/SIGTERM or an injected cancel at serve.admit /
 *    serve.batch / serve.respond flips the process cancel token; the
 *    loop stops admitting and drains — a batch scored before the
 *    cancel is delivered, a batch the cancel reached first and every
 *    unscored request settle as Cancelled, telemetry flushes through
 *    the normal lrdtool exit path, and the report carries the
 *    Cancelled status (exit code 3).
 *  - The loop runs under the "serve" telemetry phase, so flight-
 *    recorder samples taken while it serves are labeled "serve".
 */

#ifndef LRD_SERVE_SERVER_H
#define LRD_SERVE_SERVER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "model/transformer.h"
#include "serve/batcher.h"
#include "serve/load_control.h"
#include "serve/request.h"
#include "util/status.h"

namespace lrd {

struct ServeOptions
{
    /** Bound of the request queue; a full queue sheds the offer. */
    int64_t queueCapacity = 16;
    int64_t maxBatch = 4;
    /** Admission attempts per request (first offer + retries). */
    int maxClientAttempts = 3;
    /** Backoff base: attempt k re-offers after base * 2^k ticks. */
    int64_t retryBackoffBaseTicks = 2;
    /**
     * Pruned rank of the degradation-ladder fallback variant
     * (DecompConfig::allTensors over every layer). 0 disables the
     * fallback model; the RankFallback rung then only shrinks
     * batches.
     */
    int64_t fallbackRank = 0;
    /** Deadline assigned to workloads that do not carry one. */
    int64_t defaultDeadlineTicks = 64;
};

/** Aggregate outcome counts and latency quantiles of one run. */
struct ServeStats
{
    int64_t offered = 0;   ///< Admission offers (includes re-offers).
    int64_t admitted = 0;  ///< Offers that entered the queue.
    int64_t responded = 0; ///< Requests with outcome Responded.
    int64_t degradedResponses = 0; ///< Responded via the fallback model.
    int64_t shed = 0;              ///< Terminal sheds (retries exhausted).
    int64_t deadlineMissed = 0;
    int64_t cancelled = 0;
    int64_t unavailable = 0;
    int64_t clientRetries = 0; ///< Backoff re-offers scheduled.
    int64_t batches = 0;
    int64_t ticks = 0;
    int64_t maxServiceLevel = 0; ///< Deepest ladder rung reached.
    double p50LatencyTicks = 0.0; ///< Responded requests only.
    double p99LatencyTicks = 0.0;
    double wallSeconds = 0.0;
    double throughputRps = 0.0; ///< Responded / wallSeconds.
};

struct ServeReport
{
    ServeStats stats;
    /** One slot per request id; every outcome is terminal. */
    std::vector<ServeResponse> responses;
    /** Ok for a natural drain; Cancelled otherwise. */
    Status status;
};

class Server
{
  public:
    /**
     * @param model The serving model (borrowed; must outlive the
     *        server). Never written; the fallback variant is built
     *        from a deserialized copy.
     * @param opts queueCapacity and maxBatch must be positive.
     */
    Server(const TransformerModel &model, ServeOptions opts);

    /**
     * Serve `workload` to completion or drain. Requests must carry
     * dense ids [0, n); arrival order is (arrivalTick, id).
     */
    ServeReport run(std::vector<ServeRequest> workload);

    /** Whether the fallback variant was built (fallbackRank valid). */
    bool hasFallbackModel() const { return fallback_ != nullptr; }

  private:
    const TransformerModel &model_;
    ServeOptions opts_;
    std::unique_ptr<TransformerModel> fallback_;
};

} // namespace lrd

#endif // LRD_SERVE_SERVER_H
