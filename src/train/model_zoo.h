/**
 * @file
 * Train-once-and-cache access to the pretrained tiny models that
 * stand in for the paper's HuggingFace checkpoints.
 *
 * The first call trains the model on the synthetic corpus (a few
 * minutes on one core) and serializes it to the artifact cache; later
 * calls (and later processes: benches, examples) deserialize it.
 */

#ifndef LRD_TRAIN_MODEL_ZOO_H
#define LRD_TRAIN_MODEL_ZOO_H

#include "model/transformer.h"
#include "train/trainer.h"
#include "train/world.h"

namespace lrd {

/** The world shared by all pretrained models and benchmarks. */
const World &defaultWorld();

/** Training recipe used for the cached checkpoints. */
TrainOptions zooTrainOptions(Arch arch);

/**
 * The pretrained tiny Llama-style decoder (the stand-in for
 * Llama-2-7B in all accuracy case studies). Trains and caches on
 * first use.
 */
TransformerModel pretrainedTinyLlama();

/** The pretrained tiny BERT-style encoder (stand-in for BERT-Base). */
TransformerModel pretrainedTinyBert();

} // namespace lrd

#endif // LRD_TRAIN_MODEL_ZOO_H
