/**
 * @file
 * Token (and optional learned positional) embedding with scatter-add
 * backward.
 */

#ifndef LRD_MODEL_EMBEDDING_H
#define LRD_MODEL_EMBEDDING_H

#include <vector>

#include "model/parameter.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace lrd {

class Gradients;

/** Token ids are plain ints; sequences are vectors of them. */
using TokenSeq = std::vector<int>;

/** Embedding table; BertStyle models add learned positions. */
class Embedding
{
  public:
    /**
     * @param vocab    Vocabulary size.
     * @param dim      Embedding width.
     * @param maxSeq   Maximum sequence length (for positions).
     * @param usePositions Add a learned positional table (BERT).
     * @param rng      Initialization stream, or null for zero tables
     *                 and no draws (see Linear).
     */
    Embedding(int64_t vocab, int64_t dim, int64_t maxSeq, bool usePositions,
              const std::string &name, Rng *rng);

    /**
     * Embed tokens[0..n) at absolute positions startPos..startPos+n.
     * @return (n, dim) activations.
     */
    Tensor forward(const TokenSeq &tokens, int64_t startPos = 0) const;

    /** Scatter-add dy, the gradient of forward(tokens) at positions
     *  0..n, into `grads`. */
    void backward(const TokenSeq &tokens, const Tensor &dy,
                  Gradients &grads) const;

    std::vector<Parameter *> parameters();

    int64_t vocab() const { return vocab_; }

  private:
    int64_t vocab_;
    int64_t dim_;
    bool usePositions_;
    Parameter tok_;
    Parameter pos_;
};

} // namespace lrd

#endif // LRD_MODEL_EMBEDDING_H
