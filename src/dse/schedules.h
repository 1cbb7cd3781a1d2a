/**
 * @file
 * Layer-choice schedules: the literal Table 4 of the paper (for the
 * 32-layer Llama-2-7B shape) and a generator that applies the same
 * insights (skip the first two and last layers, spread decomposed
 * layers apart) to models of any depth.
 */

#ifndef LRD_DSE_SCHEDULES_H
#define LRD_DSE_SCHEDULES_H

#include <vector>

#include "model/decomp_config.h"

namespace lrd {

/** One row of the paper's Table 4. */
struct Table4Row
{
    double reductionPercent;      ///< Paper-reported parameter reduction.
    std::vector<int> layers1Based; ///< Layer list exactly as printed.
};

/** The paper's Table 4 (layer indices are 1-based, 32-layer model). */
const std::vector<Table4Row> &paperTable4();

/** A Table 4 row's layers converted to 0-based indices. */
std::vector<int> table4Layers0Based(const Table4Row &row);

/**
 * Generate `count` decomposed layers for an `nLayers`-deep model
 * following the characterization insights: prefer the interior
 * (skip layers 0, 1 and the last layer while possible) and spread
 * selections as far apart as possible.
 */
std::vector<int> spreadSchedule(int nLayers, int count);

/**
 * All-tensor rank-1 configuration whose parameter reduction is as
 * close as possible to `targetReduction` (fraction of total params),
 * with layers chosen by spreadSchedule().
 */
DecompConfig scheduleForReduction(const ModelConfig &cfg,
                                  double targetReduction);

} // namespace lrd

#endif // LRD_DSE_SCHEDULES_H
