/**
 * @file
 * The benchmark's workloads and the run loop they share. Every
 * workload drives the library through its public functions on the
 * pretrained tiny-llama checkpoint that `pipebench prepare` exported:
 *
 *  - dse_sweep          Definition-1 optimizeDecomposition sweep.
 *  - eval_suite.dense   7-benchmark Evaluator suite, dense checkpoint.
 *  - eval_suite.lowrank The same suite on scheduleForReduction(cfg, 0.5).
 *  - serve_openloop     Server::run on seeded open-loop arrivals.
 *
 * An untraced run reports the end-to-end metrics; a traced run
 * reports the per-layer metrics (see README.md for both lists).
 */

#ifndef PIPEBENCH_WORKLOADS_H
#define PIPEBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /** Traced runs write their spans here (chrome://tracing JSON). */
    std::string spansPath;
    /**
     * Directory of per-(workload, seed) output digests: the first run
     * of a seed records its digest, every later run must match it.
     * Empty keeps the check within this run's passes.
     */
    std::string digestDir;
    /** One-line build/host description stamped into the spans file. */
    std::string provenance;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOutcome
{
    int64_t attempted = 0; ///< Work units attempted over all passes.
    int64_t failed = 0;    ///< Units not completed + failed checks.
    std::vector<std::string> problems; ///< Failed correctness checks.
    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
};

/** Workload names accepted by runWorkload(). */
std::vector<std::string> workloadNames();

/**
 * Run one workload. Throws std::runtime_error when the run cannot
 * start: unknown workload, or no exported checkpoint (a timed run
 * never trains one).
 */
RunOutcome runWorkload(const RunOptions &opts);

/**
 * Train (first call) or load the cached tiny-llama and export it as
 * the checkpoint timed runs read.
 */
void prepareCheckpoint();

} // namespace pipebench

#endif // PIPEBENCH_WORKLOADS_H
