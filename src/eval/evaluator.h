/**
 * @file
 * Benchmark evaluator. Multiple-choice items are scored by summed
 * log-likelihood of each choice continuation (the lm-evaluation-
 * harness protocol the paper follows); GSM8K-style items are scored
 * by greedy-decode exact match.
 *
 * Decoder (LlamaStyle) models append the context to one KV-cache
 * session once and truncate it back to the context after each choice.
 * Encoder (BertStyle) models are scored by pseudo-log-likelihood: each
 * choice position is masked in turn and the original token's
 * probability read out.
 *
 * Items fan out over the thread pool and every worker scores on the
 * one model: an inference forward writes no layer state. Each item
 * writes only its own result slot, so results are bitwise independent
 * of LRD_THREADS.
 */

#ifndef LRD_EVAL_EVALUATOR_H
#define LRD_EVAL_EVALUATOR_H

#include <map>

#include "eval/benchmarks.h"
#include "model/transformer.h"

namespace lrd {

/** Evaluation knobs. */
struct EvalOptions
{
    int numTasks = 120;          ///< Items per benchmark.
    uint64_t seed = 777;         ///< Task-generation seed.
    bool lengthNormalize = false; ///< acc_norm-style scoring.
};

/** Runs the benchmark suite against one model. */
class Evaluator
{
  public:
    /** `model` is borrowed and never written. */
    Evaluator(const TransformerModel &model, const World &world,
              EvalOptions opts = {});

    /** Accuracy on one benchmark. */
    EvalResult run(BenchmarkKind kind);

    /** Accuracy on every benchmark (paper Figure 9's panel set). */
    std::map<BenchmarkKind, EvalResult> runAll();

    /** Mean accuracy across all benchmarks (Figures 7 and 8). */
    double aggregateAccuracy();

    /** Which choice a decoder model picks for one item. */
    int pickChoiceCausal(const McTask &task);

  private:
    EvalResult runMc(BenchmarkKind kind);
    EvalResult runGen();

    const TransformerModel &model_;
    const World &world_;
    EvalOptions opts_;
};

} // namespace lrd

#endif // LRD_EVAL_EVALUATOR_H
