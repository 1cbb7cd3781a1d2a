/**
 * @file
 * Training loop: causal-LM training for LlamaStyle models and
 * masked-LM training for BertStyle models, over the synthetic corpus.
 */

#ifndef LRD_TRAIN_TRAINER_H
#define LRD_TRAIN_TRAINER_H

#include "model/transformer.h"
#include "train/adam.h"
#include "train/corpus.h"

namespace lrd {

/** Knobs for a training run. */
struct TrainOptions
{
    int steps = 600;        ///< Optimizer steps.
    int batchSeqs = 8;      ///< Sequences per step (grad accumulation).
    int seqLen = 64;        ///< Training sequence length.
    int warmupSteps = 40;
    double lr = 3e-3;
    double mlmProb = 0.15;  ///< BERT-style masking probability.
    uint64_t seed = 31337;
    int logEvery = 100;     ///< 0 disables progress logging.

    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;
    /** Steps between checkpoints (0 disables; final step included). */
    int checkpointEvery = 0;
    /** Resume from checkpointPath when it exists. */
    bool resume = false;
};

/**
 * Drives AdamW over the synthetic corpus. Every batch item trains on
 * the one model into its own Gradients buffer, built once per run and
 * folded in item order. With checkpointing enabled, the full training
 * state — weights, optimizer moments, and both RNG streams — is
 * snapshotted, so an interrupted run resumed from its last checkpoint
 * produces bitwise the same model as the uninterrupted run at any
 * LRD_THREADS.
 */
class Trainer
{
  public:
    Trainer(TransformerModel &model, const World &world, TrainOptions opts);

    /** Run the configured number of steps; returns the final loss. */
    double run();

    /** Mean loss over `numDocs` held-out documents (no grads). */
    double evalLoss(int numDocs, uint64_t seed = 555);

    /**
     * Status of the last run(): ok on full completion; Cancelled when
     * a signal or injected "train.step" cancel stopped the loop early.
     * Then a final checkpoint (when checkpointing is enabled) carries
     * the completed prefix, so the run is resumable.
     */
    const Status &runStatus() const { return status_; }

  private:
    /** Build (tokens, targets) for one training sequence. */
    void makeExample(TokenSeq &tokens, std::vector<int> &targets);

    /** Write the full training state for resumption after `nextStep`. */
    void writeTrainCheckpoint(const AdamW &optimizer, int nextStep);

    /**
     * Restore state from opts_.checkpointPath (falling back to the
     * rotated previous checkpoint). Sets startStep; NotFound leaves
     * the fresh-start state untouched.
     */
    Status restoreFromCheckpoint(AdamW &optimizer, int &startStep);

    TransformerModel &model_;
    const World &world_;
    TrainOptions opts_;
    CorpusGenerator gen_;
    Rng maskRng_;
    Status status_;
};

} // namespace lrd

#endif // LRD_TRAIN_TRAINER_H
