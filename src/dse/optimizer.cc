#include "optimizer.h"

#include <algorithm>
#include <limits>

#include <unistd.h>

#include "dse/schedules.h"
#include "dse/shard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "util/cache.h"
#include "util/logging.h"

namespace lrd {

OptimizerOptions::OptimizerOptions()
    : device(a100_80gb())
{
}

namespace {

/** Payload-format version of DSE checkpoints. v2 added the grid
 *  index and feasibility flag to serialized candidate records. */
constexpr uint32_t kDseCkptVersion = 2;

/** One point of the pruned candidate grid. */
struct Candidate
{
    int64_t rank;
    int count;
};

// Record (de)serialization is shared with the shard protocol — see
// putCandidateRecord/getCandidateRecord in dse/shard.h. All metric
// doubles round-trip as raw f64 bits, so a resumed sweep reports
// bitwise the same records as an uninterrupted one.

void
writeDseCheckpoint(const OptimizerOptions &opts,
                   const OptimizerResult &result,
                   const std::vector<Candidate> &grid,
                   const std::vector<uint8_t> &done,
                   const std::vector<CandidateRecord> &records)
{
    ByteWriter w;
    w.putF64(result.baselineAccuracy);
    w.putF64(result.baselineEdp);
    w.putU64(grid.size());
    for (const Candidate &cand : grid) {
        w.putU64(static_cast<uint64_t>(cand.rank));
        w.putU32(static_cast<uint32_t>(cand.count));
    }
    for (size_t i = 0; i < grid.size(); ++i) {
        w.putU32(done[i] != 0 ? 1 : 0);
        if (done[i] != 0)
            putCandidateRecord(w, records[i]);
    }
    Status s = writeCheckpoint(opts.checkpointPath, kDseCkptVersion,
                               w.bytes());
    if (!s.ok()) {
        if (robustPolicy().mode == RobustMode::Strict)
            fatal("dse: checkpoint failed: " + s.toString());
        warn("dse: checkpoint skipped; " + s.toString());
    }
}

Status
restoreDseCheckpoint(const OptimizerOptions &opts, OptimizerResult &result,
                     const std::vector<Candidate> &grid,
                     std::vector<uint8_t> &done,
                     std::vector<CandidateRecord> &records)
{
    Result<std::vector<uint8_t>> payload =
        readCheckpointWithFallback(opts.checkpointPath, kDseCkptVersion);
    if (!payload.ok())
        return payload.status();
    ByteReader r(std::move(payload).value());
    const double baselineAccuracy = r.getF64();
    const double baselineEdp = r.getF64();
    if (r.getU64() != grid.size())
        return Status(StatusCode::InvalidArgument, "dse.resume",
                      "checkpoint grid size does not match this search");
    for (const Candidate &cand : grid) {
        const auto rank = static_cast<int64_t>(r.getU64());
        const auto count = static_cast<int>(r.getU32());
        if (rank != cand.rank || count != cand.count)
            return Status(StatusCode::InvalidArgument, "dse.resume",
                          "checkpoint candidate grid does not match "
                          "this search");
    }
    for (size_t i = 0; i < grid.size(); ++i) {
        done[i] = r.getU32() != 0 ? 1 : 0;
        if (done[i] != 0)
            records[i] = getCandidateRecord(r);
    }
    result.baselineAccuracy = baselineAccuracy;
    result.baselineEdp = baselineEdp;
    return Status();
}

} // namespace

OptimizerResult
optimizeDecomposition(const std::vector<uint8_t> &modelBytes,
                      const World &world, const OptimizerOptions &opts)
{
    require(opts.accuracyDropTolerance >= 0.0,
            "optimizeDecomposition: tau must be >= 0");
    require(!opts.candidateRanks.empty(),
            "optimizeDecomposition: no candidate ranks");
    std::vector<int64_t> sortedRanks = opts.candidateRanks;
    std::sort(sortedRanks.begin(), sortedRanks.end());
    require(std::adjacent_find(sortedRanks.begin(), sortedRanks.end())
                == sortedRanks.end(),
            "optimizeDecomposition: duplicate candidate rank (each grid "
            "point must be evaluated once)");

    OptimizerResult result;

    // EDP is computed either on the probe model's own shape or
    // projected onto the full Llama2-7B shape at the same reduction.
    const ModelConfig edpShape = llama2_7bConfig();
    auto edpEstimate = [&](const ModelConfig &probeCfg,
                           const DecompConfig &gamma) {
        if (!opts.projectEdpOnLlama7b)
            return estimateGeneration(probeCfg, gamma, opts.device,
                                      opts.workload);
        const DecompConfig projected = scheduleForReduction(
            edpShape, gamma.parameterReduction(probeCfg));
        return estimateGeneration(edpShape, projected, opts.device,
                                  opts.workload);
    };

    // Pruned candidate family (Section 3.4 insights): all tensors,
    // spread interior layer schedules, small ranks. Candidates are
    // independent (each deserializes its own model and slices its
    // factors from the shared bank), so the enumeration fans out
    // across the pool; records land in a fixed grid slot and the
    // feasibility/best fold below runs serially in enumeration order,
    // keeping the result thread-count invariant.
    TransformerModel probe = TransformerModel::deserialize(modelBytes);
    const ModelConfig cfg = probe.config();
    std::vector<Candidate> grid;
    std::vector<DecompConfig> configs;
    for (int64_t rank : opts.candidateRanks) {
        for (int count = 1; count <= cfg.nLayers; ++count) {
            grid.push_back({rank, count});
            configs.push_back(DecompConfig::allTensors(
                cfg, spreadSchedule(static_cast<int>(cfg.nLayers), count),
                rank));
        }
    }

    std::vector<CandidateRecord> records(grid.size());
    std::vector<uint8_t> done(grid.size(), 0);
    result.gridSize = static_cast<int64_t>(grid.size());

    // Sharded sweeps: this process only evaluates the slots whose
    // stable key hash lands on its shard. The mask depends purely on
    // the grid coordinates and shardCount — never on LRD_THREADS or
    // timing — so every run partitions identically.
    require(opts.shardCount >= 1 && opts.shardIndex >= 0
                && opts.shardIndex < opts.shardCount,
            "optimizeDecomposition: bad shard spec");
    std::vector<uint8_t> owned(grid.size(), 1);
    if (opts.shardCount > 1) {
        int64_t numOwned = 0;
        for (size_t i = 0; i < grid.size(); ++i) {
            owned[i] = shardOfKey(candidateShardKey(grid[i].rank,
                                                    grid[i].count),
                                  opts.shardCount)
                               == opts.shardIndex
                           ? 1
                           : 0;
            numOwned += owned[i];
        }
        inform(strCat("dse: shard ", opts.shardIndex, "/",
                      opts.shardCount, " owns ", numOwned, " of ",
                      grid.size(), " candidates"));
    }

    bool resumed = false;
    if (opts.resume && !opts.checkpointPath.empty()) {
        Status rs =
            restoreDseCheckpoint(opts, result, grid, done, records);
        if (rs.ok()) {
            int64_t numDone = 0;
            for (uint8_t d : done)
                numDone += d != 0;
            inform(strCat("dse: resumed ", opts.checkpointPath, " with ",
                          numDone, " of ", grid.size(),
                          " candidates already evaluated"));
            resumed = true;
        } else if (rs.code() == StatusCode::NotFound) {
            inform("dse: no checkpoint yet; starting fresh");
        } else {
            fatal("dse: cannot resume: " + rs.toString());
        }
    }

    WatchdogSection watched("dse");
    bool baselineTainted = false;
    if (!resumed) {
        // Baseline accuracy and EDP on the dense model.
        TransformerModel dense = TransformerModel::deserialize(modelBytes);
        Evaluator ev(dense, world,
                     EvalOptions{opts.evalTasks, opts.evalSeed, false});
        result.baselineAccuracy = ev.aggregateAccuracy();
        const InferenceEstimate est =
            edpEstimate(cfg, DecompConfig::identity());
        result.baselineEdp = est.latencySec * est.energyJoules;
        // A cancel during the baseline eval leaves a partial accuracy;
        // never checkpoint it, so a resumed sweep recomputes it.
        baselineTainted = cancelRequested();
    }

    // Decompose once: one SVD per distinct weight that the candidates
    // this process will evaluate (owned, not restored) decompose. Each
    // candidate then slices its rank prefix, bitwise what factorizing
    // its own copy would give. An invalid candidate (a rank above a
    // weight's) stays out of the bank and fails in its own slot.
    std::vector<DecompConfig> pending;
    for (size_t i = 0; i < grid.size(); ++i)
        if (owned[i] != 0 && done[i] == 0 && configs[i].valid(cfg))
            pending.push_back(configs[i]);
    const FactorBank bank = [&] {
        LRD_TRACE_SPAN("dse.factor_bank");
        return FactorBank(probe, pending);
    }();

    const auto total = static_cast<int64_t>(grid.size());
    const bool checkpointing =
        !opts.checkpointPath.empty() && opts.checkpointEvery > 0;
    const int64_t stride = checkpointing ? opts.checkpointEvery : total;
    auto runCandidates = [&](int64_t runBegin, int64_t runEnd) {
        parallelFor(
            runBegin, runEnd, 1, [&](int64_t lo, int64_t hi) {
                static Counter *candidates =
                    MetricsRegistry::instance().counter("dse.candidates");
                for (int64_t idx = lo; idx < hi; ++idx) {
                    if (owned[static_cast<size_t>(idx)] == 0)
                        continue; // Another shard's slot.
                    if (done[static_cast<size_t>(idx)] != 0)
                        continue; // Already evaluated before resume.
                    LRD_TRACE_SPAN("dse.candidate");
                    candidates->inc();
                    const DecompConfig &gamma =
                        configs[static_cast<size_t>(idx)];

                    CandidateRecord rec;
                    rec.config = gamma;
                    rec.gridIndex = idx;
                    auto evaluate = [&] {
                        TransformerModel model =
                            TransformerModel::deserialize(modelBytes);
                        Status ds = gamma.applyTo(model, bank);
                        if (!ds.ok()) {
                            rec.failed = true;
                            rec.failure = ds.toString();
                            return;
                        }
                        Evaluator ev(model, world,
                                     EvalOptions{opts.evalTasks,
                                                 opts.evalSeed, false});
                        rec.accuracy = ev.aggregateAccuracy();
                        rec.reduction = gamma.parameterReduction(cfg);
                        const InferenceEstimate est =
                            edpEstimate(cfg, gamma);
                        rec.latencySec = est.latencySec;
                        rec.energyJ = est.energyJoules;
                        rec.edp = est.latencySec * est.energyJoules;
                    };
                    if (robustPolicy().mode == RobustMode::Strict) {
                        evaluate();
                    } else {
                        // Graceful degradation: one faulted candidate
                        // is recorded and the sweep continues.
                        try {
                            evaluate();
                        } catch (const std::exception &e) {
                            rec.failed = true;
                            rec.failure = e.what();
                        }
                    }
                    if (cancelRequested())
                        continue; // Mid-candidate kill: drop the
                                  // partial record so a resumed sweep
                                  // re-evaluates this slot.
                    records[static_cast<size_t>(idx)] = std::move(rec);
                    done[static_cast<size_t>(idx)] = 1;
                }
            });
    };
    const auto countDone = [&] {
        int64_t n = 0;
        for (uint8_t d : done)
            n += d != 0;
        return n;
    };
    const int64_t doneAtStart = countDone();
    for (int64_t batchStart = 0; batchStart < total;
         batchStart += stride) {
        // Batch boundaries are the sweep's cancellation points: a
        // signal, an injected "dse.batch" cancel, or an expired
        // deadline stops here, after a final checkpoint has captured
        // every fully evaluated candidate.
        pollCancelFault("dse.batch");
        const int64_t batchEnd = std::min(total, batchStart + stride);
        Status cancel = checkCancellation("dse.batch");
        if (cancel.ok()) {
            const int64_t admitted =
                consumeWorkBudget("steps", batchEnd - batchStart);
            if (admitted > 0)
                runCandidates(batchStart, batchStart + admitted);
            if (admitted < batchEnd - batchStart)
                expireDeadline("dse.batch");
            // Re-check: a signal may have landed mid-batch.
            cancel = checkCancellation("dse.batch");
        }
        result.evaluatedThisRun = countDone() - doneAtStart;
        // Heartbeat before the checkpoint: if a crash lands between
        // the two, the lease has already banked this batch's work, so
        // the retry's re-evaluation of it is counted as recomputed
        // rather than silently absorbed.
        if (!opts.leasePath.empty()) {
            const Status ls = writeShardLease(
                opts.leasePath,
                ShardLease{static_cast<int64_t>(::getpid()),
                           opts.evalsEverBase + result.evaluatedThisRun});
            if (!ls.ok())
                warn("dse: shard lease heartbeat skipped; "
                     + ls.toString());
        }
        if (checkpointing && !baselineTainted)
            writeDseCheckpoint(opts, result, grid, done, records);
        if (!cancel.ok()) {
            result.cancelled = true;
            result.status = cancel;
            break;
        }
    }

    // Serial fold, shared with the shard merge so both produce
    // bitwise-identical results from identical records.
    std::vector<CandidateRecord> doneRecords;
    for (size_t i = 0; i < records.size(); ++i) {
        if (done[i] == 0)
            continue; // Cancelled before this slot, or another shard's.
        records[i].gridIndex = static_cast<int64_t>(i);
        doneRecords.push_back(std::move(records[i]));
    }
    const auto numDone = static_cast<int64_t>(doneRecords.size());
    OptimizerResult folded = foldCandidateRecords(
        result.baselineAccuracy, result.baselineEdp,
        opts.accuracyDropTolerance, std::move(doneRecords));
    result.best = std::move(folded.best);
    result.explored = std::move(folded.explored);
    result.numFailed = folded.numFailed;
    Status firstFailure;
    for (const CandidateRecord &rec : result.explored) {
        if (rec.failed) {
            firstFailure = Status(StatusCode::Internal, "dse.candidate",
                                  rec.failure);
            break;
        }
    }
    enforceFailureBudget("dse", result.numFailed, numDone, firstFailure);
    return result;
}

OptimizerResult
foldCandidateRecords(double baselineAccuracy, double baselineEdp,
                     double accuracyDropTolerance,
                     std::vector<CandidateRecord> records)
{
    OptimizerResult result;
    result.baselineAccuracy = baselineAccuracy;
    result.baselineEdp = baselineEdp;
    double bestEdp = std::numeric_limits<double>::infinity();
    bool haveBest = false;
    for (CandidateRecord &rec : records) {
        if (rec.failed) {
            ++result.numFailed;
            rec.feasible = false;
        } else {
            rec.feasible =
                std::max(baselineAccuracy - rec.accuracy, 0.0)
                < accuracyDropTolerance;
        }
        if (rec.feasible && rec.edp < bestEdp) {
            bestEdp = rec.edp;
            result.best = rec;
            haveBest = true;
        }
    }
    if (!haveBest) {
        // No decomposition satisfies tau: the identity is the answer.
        CandidateRecord identity;
        identity.config = DecompConfig::identity();
        identity.accuracy = baselineAccuracy;
        identity.edp = baselineEdp;
        identity.feasible = true;
        result.best = identity;
    }
    result.explored = std::move(records);
    return result;
}

} // namespace lrd
