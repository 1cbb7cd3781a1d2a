/**
 * @file
 * The seven benchmark generators standing in for the paper's
 * evaluation suites (Table 3). Each generator grades difficulty via
 * its construction:
 *
 *  - ArcEasy:       head-entity fact QA with cross-type distractors
 *                   (solvable from type knowledge alone -> high acc).
 *  - ArcChallenge:  fact QA with same-type distractors (needs
 *                   entity-specific knowledge).
 *  - HellaSwag:     pattern-completion with 2-token continuations.
 *  - Mmlu:          mixed-domain QA over *uniformly* sampled entities
 *                   including the Zipf tail (weakly learned -> low
 *                   acc) plus arithmetic items.
 *  - TruthfulQa:    true color vs widely-circulated myth color: the
 *                   adversarial-frequency probe; small models prefer
 *                   the myth, so accuracy can sit below chance and
 *                   *rise* under heavy compression (the paper's
 *                   reverse trend).
 *  - WinoGrande:    2-way pronoun agreement.
 *  - Gsm8k:         few-shot addition, greedy-decoded, exact match.
 */

#ifndef LRD_EVAL_BENCHMARKS_H
#define LRD_EVAL_BENCHMARKS_H

#include <vector>

#include "eval/task.h"
#include "train/world.h"

namespace lrd {

/** The benchmark suite (paper Table 3). */
enum class BenchmarkKind {
    ArcEasy,
    ArcChallenge,
    HellaSwag,
    Mmlu,
    TruthfulQa,
    WinoGrande,
    Gsm8k,
};

/** All benchmarks in paper order. */
const std::vector<BenchmarkKind> &allBenchmarks();

/** Display name ("ARC Easy", ...). */
std::string benchmarkName(BenchmarkKind kind);

/**
 * Generate `n` multiple-choice items. @pre kind != Gsm8k.
 * Deterministic in (kind, world, seed).
 */
std::vector<McTask> makeMcTasks(BenchmarkKind kind, const World &world,
                                int n, uint64_t seed);

/** Generate `n` few-shot GSM8K-style generation items. */
std::vector<GenTask> makeGsm8kTasks(const World &world, int n,
                                    uint64_t seed);

} // namespace lrd

#endif // LRD_EVAL_BENCHMARKS_H
