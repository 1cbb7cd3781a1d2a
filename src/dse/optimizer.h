/**
 * @file
 * The paper's Definition 1 design goal:
 *
 *   argmin_{gamma : max(Acc_orig - Acc(gamma), 0) < tau}
 *       Latency(gamma) x Energy(gamma)
 *
 * Searching the raw design space is intractable (Theorem 3.2), so the
 * optimizer searches the characterization-pruned space (Section 3.4):
 * rank-1, all tensors per decomposed layer, spread-apart interior
 * layer schedules — O(nLayers) candidates instead of O(2^37).
 */

#ifndef LRD_DSE_OPTIMIZER_H
#define LRD_DSE_OPTIMIZER_H

#include <vector>

#include "model/decomp_config.h"
#include "eval/evaluator.h"
#include "hw/roofline.h"
#include "train/world.h"

namespace lrd {

/** Search knobs for the Definition 1 optimizer. */
struct OptimizerOptions
{
    double accuracyDropTolerance = 0.05; ///< tau.
    int evalTasks = 80;                  ///< Items per benchmark.
    uint64_t evalSeed = 991;
    /** Distinct pruned ranks, each swept over every layer count
     *  (insight: rank-1). */
    std::vector<int64_t> candidateRanks = {1};
    DeviceSpec device;                         ///< Default: A100.
    GenerationWorkload workload;               ///< EDP workload.
    /**
     * When true, EDP is projected onto the full-size Llama2-7B shape
     * at the candidate's parameter-reduction rate (accuracy is still
     * measured on the live stand-in model). This mirrors the repo's
     * substitution methodology: accuracy from the trainable model,
     * efficiency from the paper's real model shape.
     */
    bool projectEdpOnLlama7b = true;

    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;
    /** Candidates evaluated between checkpoints (0 disables). */
    int checkpointEvery = 8;
    /** Resume from checkpointPath when it exists. */
    bool resume = false;

    /**
     * Sharded-sweep membership: this process owns the grid slots
     * whose stable candidate-key hash lands on shardIndex (see
     * dse/shard.h). shardCount 1 = unsharded; the partition depends
     * only on (rank, count, shardCount), never on LRD_THREADS.
     */
    int shardIndex = 0;
    int shardCount = 1;
    /**
     * Heartbeat lease file (sharded runs): rewritten at every batch
     * boundary with this pid and the cumulative evaluation count, so
     * a supervisor can tell a live shard from a dead one by mtime and
     * a merge can report recomputed work. Empty disables.
     */
    std::string leasePath;
    /** Evaluations performed by earlier attempts of this shard. */
    int64_t evalsEverBase = 0;

    OptimizerOptions();
};

/** One explored candidate and its measured/estimated metrics. */
struct CandidateRecord
{
    DecompConfig config;
    /** Slot in the enumeration-order candidate grid. Lets shard
     *  result files land records back in their serial position. */
    int64_t gridIndex = 0;
    double accuracy = 0;   ///< Aggregate benchmark accuracy.
    double latencySec = 0;
    double energyJ = 0;
    double edp = 0;        ///< latency x energy.
    double reduction = 0;  ///< Parameter reduction fraction.
    bool feasible = false; ///< Accuracy constraint satisfied.
    bool failed = false;   ///< Candidate faulted; degraded (infeasible).
    std::string failure;   ///< Failure description when failed.
};

/** Search outcome. */
struct OptimizerResult
{
    CandidateRecord best;       ///< Min-EDP feasible candidate.
    double baselineAccuracy = 0;
    double baselineEdp = 0;
    std::vector<CandidateRecord> explored;
    int numFailed = 0;     ///< Degraded candidates (within budget).
    /** True when a signal, injected cancel, or deadline stopped the
     *  sweep; the checkpoint then carries the completed prefix. */
    bool cancelled = false;
    /** Cancelled/DeadlineExceeded when the sweep stopped early. */
    Status status;
    /** Candidates evaluated by this run (excludes slots restored from
     *  a checkpoint) — the shard lease's progress delta. */
    int64_t evaluatedThisRun = 0;
    /** Full candidate-grid size (all shards), for coverage checks. */
    int64_t gridSize = 0;
};

/**
 * The serial tail of the search, shared with the shard merge: given
 * every evaluated record in grid-enumeration order, compute
 * feasibility against tau, pick the min-EDP feasible candidate
 * (falling back to the identity when nothing is feasible), and count
 * failures. Pure — same inputs, bitwise-same OptimizerResult — which
 * is what makes a sharded merge byte-identical to a serial sweep.
 * Does NOT enforce the failure budget; callers that sweep do.
 */
OptimizerResult foldCandidateRecords(double baselineAccuracy,
                                     double baselineEdp,
                                     double accuracyDropTolerance,
                                     std::vector<CandidateRecord> records);

/**
 * Run the Definition 1 search. Each weight the evaluated candidates
 * decompose is factorized once, into a FactorBank, and every candidate
 * slices its rank prefix from it.
 *
 * @param modelBytes Serialized dense checkpoint (each candidate gets
 *                   a fresh copy, since decomposition is destructive).
 * @param world      The benchmark world.
 */
OptimizerResult optimizeDecomposition(
    const std::vector<uint8_t> &modelBytes, const World &world,
    const OptimizerOptions &opts = OptimizerOptions());

} // namespace lrd

#endif // LRD_DSE_OPTIMIZER_H
