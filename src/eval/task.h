/**
 * @file
 * Benchmark task representations: multiple-choice tasks scored by
 * log-likelihood (the lm-evaluation-harness method the paper uses)
 * and generation tasks scored by exact match (GSM8K-style).
 */

#ifndef LRD_EVAL_TASK_H
#define LRD_EVAL_TASK_H

#include <string>
#include <vector>

#include "model/embedding.h"
#include "util/status.h"

namespace lrd {

/** One multiple-choice item. */
struct McTask
{
    TokenSeq context;                ///< Prompt (starts with <bos>).
    std::vector<TokenSeq> choices;   ///< Candidate continuations.
    int gold = 0;                    ///< Index of the correct choice.
};

/** One generation item (exact-match scored). */
struct GenTask
{
    TokenSeq prompt;   ///< Few-shot prompt (starts with <bos>).
    TokenSeq expected; ///< Tokens the model must emit verbatim.
};

/** Accuracy summary for one benchmark run. */
struct EvalResult
{
    /** Fraction correct in [0, 1] over the *attempted* items. */
    double accuracy = 0.0;
    int numTasks = 0;
    int numCorrect = 0;
    /** Items that faulted and were degraded (scored as incorrect). */
    int numFailed = 0;
    /** Items never scored: a cancel request intervened. */
    int numSkipped = 0;
    /** Cancelled when the run stopped early. */
    Status status;

    /** Whether this result covers only part of the benchmark. */
    bool partial() const { return numSkipped > 0; }
};

} // namespace lrd

#endif // LRD_EVAL_TASK_H
