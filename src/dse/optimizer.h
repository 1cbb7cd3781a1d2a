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

#include <string>
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
    /** EDP workload. EDP is projected onto the full-size Llama2-7B
     *  shape at the candidate's parameter-reduction rate; accuracy is
     *  measured on the live stand-in model. */
    GenerationWorkload workload;

    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;
    /** Candidates evaluated between checkpoints (0 disables). */
    int checkpointEvery = 8;
    /** Resume from checkpointPath when it exists. */
    bool resume = false;

    OptimizerOptions();
};

/** One explored candidate and its measured/estimated metrics. */
struct CandidateRecord
{
    DecompConfig config;
    /** Slot in the enumeration-order candidate grid. */
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
    /** True when a signal or injected cancel stopped the sweep; the
     *  checkpoint then carries the completed prefix. */
    bool cancelled = false;
    /** Cancelled when the sweep stopped early. */
    Status status;
    /** Full candidate-grid size, for coverage checks. */
    int64_t gridSize = 0;
};

/**
 * The serial tail of the search: given every evaluated record in
 * grid-enumeration order, compute feasibility against tau, pick the
 * min-EDP feasible candidate (falling back to the identity when
 * nothing is feasible), and count failures. Pure — same inputs,
 * bitwise-same OptimizerResult — so records evaluated in any order or
 * restored from a checkpoint fold to the same result. Does NOT
 * enforce the failure budget; optimizeDecomposition does.
 */
OptimizerResult foldCandidateRecords(double baselineAccuracy,
                                     double baselineEdp,
                                     double accuracyDropTolerance,
                                     std::vector<CandidateRecord> records);

/**
 * Run the Definition 1 search. Each weight the evaluated candidates
 * decompose is factorized once, into a FactorBank, and every candidate
 * slices its rank prefix from it. Every grid point must be a valid
 * configuration that does not grow the model; a rank that breaks
 * either (or repeats) fails a require before the baseline evaluation.
 *
 * @param modelBytes Serialized dense checkpoint (each candidate gets
 *                   a fresh copy, since decomposition is destructive).
 * @param world      The benchmark world.
 */
OptimizerResult optimizeDecomposition(
    const std::vector<uint8_t> &modelBytes, const World &world,
    const OptimizerOptions &opts = OptimizerOptions());

/**
 * Serialize a completed search result to `path` (atomic,
 * CRC-protected). Metric doubles are stored as raw f64 bits, so
 * byte-comparing two result files is the determinism check.
 */
Status writeDseResultFile(const std::string &path,
                          const OptimizerResult &result);

} // namespace lrd

#endif // LRD_DSE_OPTIMIZER_H
