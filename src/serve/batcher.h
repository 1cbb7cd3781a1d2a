/**
 * @file
 * The continuous batcher: executes one tick's batch of sequence-
 * scoring requests on the thread pool, writing each response into its
 * request's fixed slot.
 *
 * Determinism contract (the evaluator's): every worker scores on the
 * one borrowed model, whose inference forwards write no layer state;
 * items are independent and each writes only its own slot, so
 * response content is invariant under LRD_THREADS.
 *
 * Fault hook: the serve.batch nan site is checked ONCE per batch on
 * the control thread before the parallel region, and deterministically
 * poisons the batch's first item — the injected numeric failure lands
 * on the same request at any thread count.
 */

#ifndef LRD_SERVE_BATCHER_H
#define LRD_SERVE_BATCHER_H

#include <cstdint>
#include <vector>

#include "model/transformer.h"
#include "serve/request.h"

namespace lrd {

class Batcher
{
  public:
    /**
     * @param primary Full-rank serving model (borrowed; must outlive
     *        the batcher).
     * @param fallback Optional lower-rank variant for the degradation
     *        ladder's RankFallback rung (borrowed; may be null, in
     *        which case fallback execution uses the primary).
     */
    Batcher(const TransformerModel &primary,
            const TransformerModel *fallback);

    /**
     * Score `batch` and write outcome/score/status into the matching
     * slots of `out` (indexed by position in `batch`). Every slot is
     * settled as Responded; an injected serve.batch numeric fault
     * settles item 0 with a NonFinite status instead of a score.
     */
    void execute(const std::vector<ServeRequest> &batch, bool useFallback,
                 int64_t tick, std::vector<ServeResponse *> &out);

  private:
    const TransformerModel &primary_;
    const TransformerModel &fallback_;
};

} // namespace lrd

#endif // LRD_SERVE_BATCHER_H
