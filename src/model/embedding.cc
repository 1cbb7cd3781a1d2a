#include "embedding.h"

#include <cmath>

#include "model/tape.h"
#include "util/logging.h"

namespace lrd {

Embedding::Embedding(int64_t vocab, int64_t dim, int64_t maxSeq,
                     bool usePositions, const std::string &name, Rng *rng)
    : vocab_(vocab), dim_(dim), usePositions_(usePositions)
{
    const auto table = [rng](int64_t rows, int64_t cols) {
        return rng != nullptr ? Tensor::randn({rows, cols}, *rng, 0.02F)
                              : Tensor({rows, cols});
    };
    tok_ = Parameter(name + ".tok", table(vocab, dim));
    if (usePositions_)
        pos_ = Parameter(name + ".pos", table(maxSeq, dim));
}

Tensor
Embedding::forward(const TokenSeq &tokens, int64_t startPos) const
{
    const auto n = static_cast<int64_t>(tokens.size());
    require(n > 0, "Embedding::forward: empty token sequence");
    if (usePositions_)
        require(startPos + n <= pos_.value.dim(0),
                "Embedding::forward: positions ", startPos + n,
                " exceed maxSeq ", pos_.value.dim(0));
    Tensor y({n, dim_});
    for (int64_t i = 0; i < n; ++i) {
        const int t = tokens[static_cast<size_t>(i)];
        require(t >= 0 && t < vocab_, "Embedding::forward: token ", t,
                " out of vocab ", vocab_);
        const float *row = tok_.value.data() + static_cast<int64_t>(t) * dim_;
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j)
            out[j] = row[j];
        if (usePositions_) {
            const float *prow =
                pos_.value.data() + (startPos + i) * dim_;
            for (int64_t j = 0; j < dim_; ++j)
                out[j] += prow[j];
        }
    }
    return y;
}

void
Embedding::backward(const TokenSeq &tokens, const Tensor &dy,
                    Gradients &grads) const
{
    const auto n = static_cast<int64_t>(tokens.size());
    require(dy.rank() == 2 && dy.dim(0) == n && dy.dim(1) == dim_,
            "Embedding::backward: grad shape mismatch");
    Tensor &dTok = grads.of(tok_);
    Tensor *dPos = usePositions_ ? &grads.of(pos_) : nullptr;
    for (int64_t i = 0; i < n; ++i) {
        const int t = tokens[static_cast<size_t>(i)];
        float *grow = dTok.data() + static_cast<int64_t>(t) * dim_;
        const float *drow = dy.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j)
            grow[j] += drow[j];
        if (dPos != nullptr) {
            float *prow = dPos->data() + i * dim_;
            for (int64_t j = 0; j < dim_; ++j)
                prow[j] += drow[j];
        }
    }
}

std::vector<Parameter *>
Embedding::parameters()
{
    std::vector<Parameter *> ps = {&tok_};
    if (usePositions_)
        ps.push_back(&pos_);
    return ps;
}

} // namespace lrd
