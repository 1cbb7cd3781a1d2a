#include "optimizer.h"

#include <algorithm>
#include <limits>

#include "dse/schedules.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
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
/** Payload-format version of `writeDseResultFile` output. */
constexpr uint32_t kDseResultVersion = 1;

/** One point of the pruned candidate grid. */
struct Candidate
{
    int64_t rank;
    int count;
};

// Record (de)serialization for the checkpoint and the result file.
// All metric doubles round-trip as raw f64 bits, so a resumed sweep
// reports bitwise the same records as an uninterrupted one.

void
putDecompConfig(ByteWriter &w, const DecompConfig &c)
{
    w.putU64(c.layers.size());
    for (int l : c.layers)
        w.putU32(static_cast<uint32_t>(l));
    w.putU64(c.tensors.size());
    for (WeightKind k : c.tensors)
        w.putU32(static_cast<uint32_t>(k));
    w.putU64(static_cast<uint64_t>(c.prunedRank));
    w.putU64(c.rankOverrides.size());
    for (const auto &[key, rank] : c.rankOverrides) {
        w.putU32(static_cast<uint32_t>(key.first));
        w.putU32(static_cast<uint32_t>(key.second));
        w.putU64(static_cast<uint64_t>(rank));
    }
}

/**
 * A record count of 4-byte entries, checked against the bytes left
 * before anything is sized by it: a resumed checkpoint is outside
 * input, and a CRC-valid file can declare any count.
 */
uint64_t
getU32Count(ByteReader &r)
{
    const uint64_t n = r.getU64();
    if (n > r.remaining() / 4)
        fatal("dse record: truncated stream");
    return n;
}

DecompConfig
getDecompConfig(ByteReader &r)
{
    DecompConfig c;
    const uint64_t nLayers = getU32Count(r);
    c.layers.resize(nLayers);
    for (uint64_t i = 0; i < nLayers; ++i)
        c.layers[i] = static_cast<int>(r.getU32());
    const uint64_t nTensors = getU32Count(r);
    c.tensors.resize(nTensors);
    for (uint64_t i = 0; i < nTensors; ++i)
        c.tensors[i] = static_cast<WeightKind>(r.getU32());
    c.prunedRank = static_cast<int64_t>(r.getU64());
    const uint64_t nOverrides = r.getU64();
    for (uint64_t i = 0; i < nOverrides; ++i) {
        const int layer = static_cast<int>(r.getU32());
        const int kind = static_cast<int>(r.getU32());
        c.rankOverrides[{layer, kind}] = static_cast<int64_t>(r.getU64());
    }
    return c;
}

void
putCandidateRecord(ByteWriter &w, const CandidateRecord &rec)
{
    putDecompConfig(w, rec.config);
    w.putU64(static_cast<uint64_t>(rec.gridIndex));
    w.putF64(rec.accuracy);
    w.putF64(rec.latencySec);
    w.putF64(rec.energyJ);
    w.putF64(rec.edp);
    w.putF64(rec.reduction);
    w.putU32(rec.feasible ? 1 : 0);
    w.putU32(rec.failed ? 1 : 0);
    w.putString(rec.failure);
}

CandidateRecord
getCandidateRecord(ByteReader &r)
{
    CandidateRecord rec;
    rec.config = getDecompConfig(r);
    rec.gridIndex = static_cast<int64_t>(r.getU64());
    rec.accuracy = r.getF64();
    rec.latencySec = r.getF64();
    rec.energyJ = r.getF64();
    rec.edp = r.getF64();
    rec.reduction = r.getF64();
    rec.feasible = r.getU32() != 0;
    rec.failed = r.getU32() != 0;
    rec.failure = r.getString();
    return rec;
}

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

    OptimizerResult result;

    // EDP is projected onto the full Llama2-7B shape at the same
    // reduction: accuracy comes from the trainable stand-in model,
    // efficiency from the paper's real model shape.
    const ModelConfig edpShape = llama2_7bConfig();
    auto edpEstimate = [&](double reduction) {
        const DecompConfig projected =
            scheduleForReduction(edpShape, reduction);
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
    std::vector<int64_t> sortedRanks = opts.candidateRanks;
    std::sort(sortedRanks.begin(), sortedRanks.end());
    require(std::adjacent_find(sortedRanks.begin(), sortedRanks.end())
                == sortedRanks.end(),
            "optimizeDecomposition: duplicate candidate rank (each grid "
            "point must be evaluated once)");
    std::vector<Candidate> grid;
    std::vector<DecompConfig> configs;
    for (int64_t rank : opts.candidateRanks) {
        for (int count = 1; count <= cfg.nLayers; ++count) {
            grid.push_back({rank, count});
            configs.push_back(DecompConfig::allTensors(
                cfg, spreadSchedule(static_cast<int>(cfg.nLayers), count),
                rank));
            // Every grid point must be a configuration the sweep can
            // apply and that shrinks (or keeps) the model; a bad rank
            // would otherwise fail all its candidates after the
            // baseline evaluation.
            std::string why;
            require(configs.back().valid(cfg, &why),
                    "optimizeDecomposition: candidate rank ", rank,
                    " is invalid for ", cfg.name, ": ", why);
            require(configs.back().parameterReduction(cfg) >= 0.0,
                    "optimizeDecomposition: candidate rank ", rank,
                    " is past the break-even rank of ", cfg.name,
                    " (it grows the model)");
        }
    }

    std::vector<CandidateRecord> records(grid.size());
    std::vector<uint8_t> done(grid.size(), 0);
    result.gridSize = static_cast<int64_t>(grid.size());

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

    const TelemetryPhase phase("dse");
    bool baselineTainted = false;
    if (!resumed) {
        // Baseline accuracy and EDP on the dense model.
        TransformerModel dense = TransformerModel::deserialize(modelBytes);
        Evaluator ev(dense, world,
                     EvalOptions{opts.evalTasks, opts.evalSeed, false});
        result.baselineAccuracy = ev.aggregateAccuracy();
        const InferenceEstimate est = edpEstimate(0.0);
        result.baselineEdp = est.latencySec * est.energyJoules;
        // A cancel during the baseline eval leaves a partial accuracy;
        // never checkpoint it, so a resumed sweep recomputes it.
        baselineTainted = cancelRequested();
    }

    // Decompose once: one SVD per distinct weight that the candidates
    // still to evaluate (not restored) decompose. Each candidate then
    // slices its rank prefix, bitwise what factorizing its own copy
    // would give.
    std::vector<DecompConfig> pending;
    for (size_t i = 0; i < grid.size(); ++i)
        if (done[i] == 0)
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
                            edpEstimate(rec.reduction);
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
    for (int64_t batchStart = 0; batchStart < total;
         batchStart += stride) {
        // Batch boundaries are the sweep's cancellation points: a
        // signal or an injected "dse.batch" cancel stops here, after a
        // final checkpoint has captured every fully evaluated
        // candidate.
        pollCancelFault("dse.batch");
        Status cancel = cancelStatus("dse.batch");
        if (cancel.ok()) {
            runCandidates(batchStart, std::min(total, batchStart + stride));
            // Re-check: a signal may have landed mid-batch.
            cancel = cancelStatus("dse.batch");
        }
        if (checkpointing && !baselineTainted)
            writeDseCheckpoint(opts, result, grid, done, records);
        if (!cancel.ok()) {
            result.cancelled = true;
            result.status = cancel;
            break;
        }
    }

    // Serial fold over the evaluated records in enumeration order.
    std::vector<CandidateRecord> doneRecords;
    for (size_t i = 0; i < records.size(); ++i) {
        if (done[i] == 0)
            continue; // Cancelled before this slot.
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

Status
writeDseResultFile(const std::string &path, const OptimizerResult &result)
{
    ByteWriter w;
    w.putF64(result.baselineAccuracy);
    w.putF64(result.baselineEdp);
    w.putU32(static_cast<uint32_t>(result.numFailed));
    putCandidateRecord(w, result.best);
    w.putU64(result.explored.size());
    for (const CandidateRecord &rec : result.explored)
        putCandidateRecord(w, rec);
    return writeCheckpoint(path, kDseResultVersion, w.bytes());
}

} // namespace lrd
