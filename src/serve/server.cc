#include "serve/server.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "model/decomp_config.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "robust/signal.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lrd {

namespace {

/** Delivery attempts per response at the serve.respond site. */
constexpr int kDeliveryAttempts = 3;

/** Quantile of a sorted sample set (nearest-rank; deterministic). */
double
sortedQuantile(const std::vector<int64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<size_t>(q * n);
    if (rank >= sorted.size())
        rank = sorted.size() - 1;
    return static_cast<double>(sorted[rank]);
}

/** A shed request waiting out its client-side backoff. */
struct RetryEntry
{
    int64_t dueTick = 0;
    ServeRequest req;
};

} // namespace

Server::Server(const TransformerModel &model, ServeOptions opts)
    : model_(model), opts_(opts)
{
    require(opts_.queueCapacity > 0 && opts_.maxBatch > 0,
            "Server: queueCapacity and maxBatch must be positive");
    if (opts_.fallbackRank <= 0)
        return;
    const ModelConfig &cfg = model_.config();
    std::vector<int> layers(static_cast<size_t>(cfg.nLayers));
    for (size_t l = 0; l < layers.size(); ++l)
        layers[l] = static_cast<int>(l);
    const DecompConfig gamma = DecompConfig::allTensors(
        cfg, std::move(layers), opts_.fallbackRank);
    std::string why;
    if (!gamma.valid(cfg, &why)) {
        warn("serve: fallback rank " + std::to_string(opts_.fallbackRank)
             + " invalid for this model (" + why
             + "); degradation ladder will shrink batches only");
        return;
    }
    // lrd-lint: allow(hot-path-alloc) fallback variant: one copy at server construction
    auto fallback = std::make_unique<TransformerModel>(
        TransformerModel::deserialize(model_.serialize()));
    const Status applied = gamma.applyTo(*fallback);
    if (!applied.ok())
        // Under the degrade policy a failed tensor stays dense; the
        // variant is still consistent and usable.
        warn("serve: fallback factorization degraded: "
             + applied.toString());
    fallback_ = std::move(fallback);
    inform(strCat("serve: fallback variant ready (", gamma.describe(),
                  ", parameter reduction ",
                  gamma.parameterReduction(cfg), ")"));
}

ServeReport
Server::run(std::vector<ServeRequest> workload)
{
    static Counter *ticksCtr =
        MetricsRegistry::instance().counter("serve.ticks");
    static Counter *batchesCtr =
        MetricsRegistry::instance().counter("serve.batches");
    static Counter *respondedCtr =
        MetricsRegistry::instance().counter("serve.responded");
    static Counter *missedCtr =
        MetricsRegistry::instance().counter("serve.deadline.missed");
    static Counter *cancelledCtr =
        MetricsRegistry::instance().counter("serve.cancelled");
    static Counter *unavailableCtr =
        MetricsRegistry::instance().counter("serve.unavailable");
    static Counter *retriesCtr =
        MetricsRegistry::instance().counter("serve.client.retries");
    static Counter *admittedCtr =
        MetricsRegistry::instance().counter("serve.admitted");
    static Counter *shedCtr =
        MetricsRegistry::instance().counter("serve.shed");
    static Gauge *depthGauge =
        MetricsRegistry::instance().gauge("serve.queue.depth");
    static Histogram *latencyTicksHist =
        MetricsRegistry::instance().histogram("serve.latency.ticks");
    static Histogram *latencyUsHist =
        MetricsRegistry::instance().histogram("serve.latency.us");

    const auto n = static_cast<int64_t>(workload.size());
    require(n > 0, "Server::run: workload is empty");
    std::stable_sort(workload.begin(), workload.end(),
                     [](const ServeRequest &a, const ServeRequest &b) {
                         return a.arrivalTick != b.arrivalTick
                                    ? a.arrivalTick < b.arrivalTick
                                    : a.id < b.id;
                     });
    ServeReport report;
    report.responses.resize(static_cast<size_t>(n));
    std::vector<int64_t> arrivalOf(static_cast<size_t>(n), 0);
    std::vector<double> offerWallSeconds(static_cast<size_t>(n), 0.0);
    for (const ServeRequest &req : workload) {
        require(req.id >= 0 && req.id < n,
                "Server::run: request ids must be dense [0, n)");
        arrivalOf[static_cast<size_t>(req.id)] = req.arrivalTick;
    }

    // Exactly-one-terminal-outcome invariant: every settle goes
    // through here, and a second settle of the same id is a bug.
    const auto settle = [&](int64_t id, ServeOutcome outcome,
                            Status status, int64_t tick) {
        ServeResponse &slot = report.responses[static_cast<size_t>(id)];
        require(slot.outcome == ServeOutcome::Pending, "Server: request ", id,
                " settled twice");
        slot.id = id;
        slot.outcome = outcome;
        slot.status = std::move(status);
        slot.settledTick = tick;
    };

    const TelemetryPhase phase("serve");
    Timer wall;
    std::deque<ServeRequest> queue; // FIFO, at most queueCapacity.
    LoadController ladder;
    Batcher batcher(model_, fallback_.get());
    ServeStats &stats = report.stats;

    size_t nextArrival = 0;
    std::vector<RetryEntry> backlog; // Sorted by (dueTick, id).
    int64_t tick = 0;

    const auto offerOne = [&](ServeRequest req) {
        if (req.deadlineTick < tick) {
            missedCtr->inc();
            ++stats.deadlineMissed;
            settle(req.id, ServeOutcome::DeadlineMissed,
                   Status(StatusCode::DeadlineExceeded, "serve.admit",
                          "deadline expired during client backoff"),
                   tick);
            return;
        }
        ++stats.offered;
        // Admission: an injected serve.admit alloc fault sheds exactly
        // as a full queue does, so chaos runs reach the shed path at
        // any load.
        const bool injectedShed = faultAt("serve.admit", FaultKind::Alloc);
        if (!injectedShed
            && static_cast<int64_t>(queue.size()) < opts_.queueCapacity) {
            if (offerWallSeconds[static_cast<size_t>(req.id)] == 0.0)
                offerWallSeconds[static_cast<size_t>(req.id)] =
                    wall.elapsedSeconds();
            ++stats.admitted;
            admittedCtr->inc();
            queue.push_back(std::move(req));
            return;
        }
        shedCtr->inc();
        if (req.attempt + 1 < opts_.maxClientAttempts) {
            RetryEntry entry;
            entry.dueTick = tick
                            + backoffTicks(opts_.retryBackoffBaseTicks,
                                           req.attempt);
            entry.req = std::move(req);
            ++entry.req.attempt;
            ++stats.clientRetries;
            retriesCtr->inc();
            const auto pos = std::upper_bound(
                backlog.begin(), backlog.end(), entry,
                [](const RetryEntry &a, const RetryEntry &b) {
                    return a.dueTick != b.dueTick ? a.dueTick < b.dueTick
                                                  : a.req.id < b.req.id;
                });
            backlog.insert(pos, std::move(entry));
            return;
        }
        ++stats.shed;
        settle(req.id, ServeOutcome::Shed,
               Status(StatusCode::ResourceExhausted, "serve.admit",
                      injectedShed ? "injected admission failure"
                                   : "queue at capacity"),
               tick);
    };

    for (;;) {
        const bool workRemains = nextArrival < workload.size()
                                 || !backlog.empty() || !queue.empty();
        if (!workRemains)
            break;
        pollCancelFault("serve.admit");
        if (cancelRequested())
            break;

        // Offer phase (serial point): due backoff re-offers first
        // (they are older), then due arrivals, each in id order.
        while (!backlog.empty() && backlog.front().dueTick <= tick) {
            RetryEntry entry = std::move(backlog.front());
            backlog.erase(backlog.begin());
            offerOne(std::move(entry.req));
        }
        while (nextArrival < workload.size()
               && workload[nextArrival].arrivalTick <= tick) {
            offerOne(std::move(workload[nextArrival]));
            ++nextArrival;
        }
        depthGauge->set(static_cast<double>(queue.size()));

        // Degradation ladder, then batch formation with deadline
        // excision — all still on the control thread.
        ladder.update(static_cast<int64_t>(queue.size()),
                      opts_.queueCapacity);
        stats.maxServiceLevel =
            std::max(stats.maxServiceLevel,
                     static_cast<int64_t>(ladder.level()));
        const int64_t maxBatch = ladder.maxBatch(opts_.maxBatch);
        std::vector<ServeRequest> batch;
        while (static_cast<int64_t>(batch.size()) < maxBatch
               && !queue.empty()) {
            ServeRequest item = std::move(queue.front());
            queue.pop_front();
            if (item.deadlineTick < tick) {
                missedCtr->inc();
                ++stats.deadlineMissed;
                settle(item.id, ServeOutcome::DeadlineMissed,
                       Status(StatusCode::DeadlineExceeded, "serve.batch",
                              "deadline expired before batch execution"),
                       tick);
                continue;
            }
            batch.push_back(std::move(item));
        }

        if (!batch.empty()) {
            pollCancelFault("serve.batch");
            std::vector<ServeResponse *> slots;
            slots.reserve(batch.size());
            for (const ServeRequest &req : batch)
                slots.push_back(
                    &report.responses[static_cast<size_t>(req.id)]);
            // The RankFallback rung only degrades responses when a
            // fallback variant actually exists; otherwise the rung
            // still shrinks batches but scoring stays full-rank.
            if (!cancelRequested())
                batcher.execute(
                    batch, ladder.useFallbackModel() && fallback_ != nullptr,
                    tick, slots);
            if (cancelRequested()) {
                // Once cancellation is requested the pool drops work
                // it has not started, so a batch the cancel reached
                // before it finished has unscored or half-computed
                // slots: it goes back to the queue for the drain
                // instead of being delivered.
                for (size_t i = batch.size(); i-- > 0;) {
                    *slots[i] = ServeResponse{};
                    queue.push_front(std::move(batch[i]));
                }
                break;
            }
            ++stats.batches;
            batchesCtr->inc();

            // Delivery phase: serial, per-response, with up to
            // kDeliveryAttempts tries at the serve.respond fault site.
            pollCancelFault("serve.respond");
            for (size_t i = 0; i < batch.size(); ++i) {
                ServeResponse &resp = *slots[i];
                bool delivered = false;
                for (int attempt = 0;
                     attempt < kDeliveryAttempts && !delivered; ++attempt)
                    delivered = !faultAt("serve.respond", FaultKind::Alloc);
                if (!delivered) {
                    resp.outcome = ServeOutcome::Unavailable;
                    resp.status = Status(StatusCode::Unavailable,
                                         "serve.respond",
                                         "injected delivery failure");
                    ++stats.unavailable;
                    unavailableCtr->inc();
                    continue;
                }
                ++stats.responded;
                if (resp.degraded)
                    ++stats.degradedResponses;
                respondedCtr->inc();
                const int64_t latency =
                    tick - arrivalOf[static_cast<size_t>(batch[i].id)];
                latencyTicksHist->record(latency);
                const double offeredAt =
                    offerWallSeconds[static_cast<size_t>(batch[i].id)];
                latencyUsHist->record(static_cast<int64_t>(
                    (wall.elapsedSeconds() - offeredAt) * 1e6));
            }
        }

        ++tick;
        ticksCtr->inc();

        // Open-loop fast-forward: with nothing queued and nothing
        // due, jump straight to the next arrival / backoff event
        // instead of spinning empty ticks.
        if (batch.empty() && queue.empty()) {
            int64_t nextEvent = tick;
            bool have = false;
            if (nextArrival < workload.size()) {
                nextEvent = workload[nextArrival].arrivalTick;
                have = true;
            }
            if (!backlog.empty())
                nextEvent = have ? std::min(nextEvent,
                                            backlog.front().dueTick)
                                 : backlog.front().dueTick;
            if (nextEvent > tick)
                tick = nextEvent;
        }
    }

    // Drain (serial point): the loop has stopped admitting; give every
    // still-pending request its terminal outcome. Reached on
    // cancellation or natural completion (where it settles nothing).
    const Status drainStatus = cancelStatus("serve.drain");
    const auto settleDrained = [&](const ServeRequest &req,
                                   const char *what) {
        ++stats.cancelled;
        cancelledCtr->inc();
        settle(req.id, ServeOutcome::Cancelled,
               drainStatus.ok()
                   ? Status(StatusCode::Cancelled, "serve.drain", what)
                   : drainStatus,
               tick);
    };
    for (const ServeRequest &req : queue)
        settleDrained(req, "drained from the queue");
    for (const RetryEntry &entry : backlog)
        settleDrained(entry.req, "drained during client backoff");
    for (; nextArrival < workload.size(); ++nextArrival)
        settleDrained(workload[nextArrival], "never offered");
    report.status = drainStatus;

    // Report: deterministic nearest-rank quantiles over tick
    // latencies of responded requests.
    std::vector<int64_t> latencies;
    latencies.reserve(static_cast<size_t>(stats.responded));
    for (const ServeResponse &resp : report.responses) {
        require(serveOutcomeTerminal(resp.outcome),
                "Server: a request finished without a terminal outcome");
        if (resp.outcome == ServeOutcome::Responded)
            latencies.push_back(
                resp.settledTick
                - arrivalOf[static_cast<size_t>(resp.id)]);
    }
    std::sort(latencies.begin(), latencies.end());
    stats.ticks = tick;
    stats.p50LatencyTicks = sortedQuantile(latencies, 0.50);
    stats.p99LatencyTicks = sortedQuantile(latencies, 0.99);
    stats.wallSeconds = wall.elapsedSeconds();
    stats.throughputRps =
        stats.wallSeconds > 0.0
            ? static_cast<double>(stats.responded) / stats.wallSeconds
            : 0.0;
    return report;
}

} // namespace lrd
