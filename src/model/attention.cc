#include "attention.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "model/tape.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

MultiHeadAttention::MultiHeadAttention(const ModelConfig &cfg,
                                       int64_t layerIdx, Rng *rng)
    : dModel_(cfg.dModel), nHeads_(cfg.nHeads), kvHeads_(cfg.kvHeads()),
      kvDim_(cfg.kvDim()), headDim_(cfg.headDim()),
      causal_(cfg.causal())
{
    if (cfg.arch == Arch::LlamaStyle)
        rope_ = &RopeTable::shared(cfg.maxSeq, headDim_);
    const bool bias = cfg.arch == Arch::BertStyle;
    const std::string base = strCat("layer", layerIdx, ".attn.");
    wq_ = std::make_unique<Linear>(dModel_, dModel_, bias, base + "wq", rng);
    wk_ = std::make_unique<Linear>(kvDim_, dModel_, bias, base + "wk", rng);
    wv_ = std::make_unique<Linear>(kvDim_, dModel_, bias, base + "wv", rng);
    wso_ =
        std::make_unique<Linear>(dModel_, dModel_, bias, base + "wso", rng);
    if (rng == nullptr)
        return;
    // Scale the residual-branch output projection down by
    // 1/sqrt(2 * nLayers) (GPT-2-style init) so deep post-LN stacks
    // train stably.
    const float scale =
        1.0F / std::sqrt(2.0F * static_cast<float>(cfg.nLayers));
    for (int64_t i = 0; i < wso_->weight().value.size(); ++i)
        wso_->weight().value[i] *= scale;
}

Tensor
MultiHeadAttention::forward(const Tensor &x, Tape *tape, KvCache *cache) const
{
    LRD_TRACE_SPAN("attn.forward");
    require(x.rank() == 2 && x.dim(1) == dModel_,
            "MultiHeadAttention::forward: bad input ", x.shape());
    require(cache == nullptr || (causal_ && tape == nullptr),
            "MultiHeadAttention::forward: a KV cache is decoder-only and "
            "untaped");
    const int64_t n = x.dim(0);
    const int64_t start = cache != nullptr ? cache->len : 0;
    Tensor q = wq_->forward(x, tape);
    Tensor k = wk_->forward(x, tape);
    Tensor v = wv_->forward(x, tape);
    if (rope_ != nullptr) {
        rope_->apply(q, start, false, nHeads_);
        rope_->apply(k, start, false, kvHeads_);
    }

    // Keys and values are row-major (rows, kvDim): this call's own, or
    // the cache's with this call's appended. Cache storage grows only
    // past the most rows it has held: a rewound cache keeps its storage.
    const int64_t rows = start + n;
    const float *keys = k.data();
    const float *values = v.data();
    if (cache != nullptr) {
        const auto stored = static_cast<size_t>(rows * kvDim_);
        if (cache->k.size() < stored) {
            // lrd-lint: allow(hot-path-alloc) amortized doubling: a session's K rows, allocated as it appends them
            cache->k.resize(stored);
            // lrd-lint: allow(hot-path-alloc) amortized doubling: a session's V rows, allocated as it appends them
            cache->v.resize(stored);
        }
        std::copy(k.data(), k.data() + k.size(),
                  cache->k.data() + start * kvDim_);
        std::copy(v.data(), v.data() + v.size(),
                  cache->v.data() + start * kvDim_);
        cache->len = rows;
        keys = cache->k.data();
        values = cache->v.data();
    }

    // A taped forward keeps every softmax row, in backward's
    // (nHeads, n, n) layout; an untaped one reuses one per-thread row.
    std::optional<Tensor> probsAll;
    thread_local std::vector<float> scratch;
    if (tape != nullptr) {
        probsAll = Tensor({nHeads_, n, n});
    } else {
        // lrd-lint: allow(hot-path-alloc) thread_local scratch: grows to the longest sequence a thread sees, reused after
        scratch.resize(static_cast<size_t>(rows));
    }

    const float invSqrt = 1.0F / std::sqrt(static_cast<float>(headDim_));
    Tensor ctx({n, dModel_});
    const int64_t group = nHeads_ / kvHeads_;
    for (int64_t h = 0; h < nHeads_; ++h) {
        const int64_t kvh = h / group;
        for (int64_t i = 0; i < n; ++i) {
            const float *qrow = q.data() + i * dModel_ + h * headDim_;
            float *prow = probsAll ? probsAll->data() + (h * n + i) * n
                                   : scratch.data();
            const int64_t limit = causal_ ? start + i + 1 : rows;
            float mx = -std::numeric_limits<float>::infinity();
            for (int64_t j = 0; j < limit; ++j) {
                const float *krow = keys + j * kvDim_ + kvh * headDim_;
                float s = 0.0F;
                for (int64_t d = 0; d < headDim_; ++d)
                    s += qrow[d] * krow[d];
                s *= invSqrt;
                prow[j] = s;
                mx = std::max(mx, s);
            }
            float sum = 0.0F;
            for (int64_t j = 0; j < limit; ++j) {
                prow[j] = std::exp(prow[j] - mx);
                sum += prow[j];
            }
            // Normalize the row in place while accumulating ctx = P V.
            const float inv = 1.0F / sum;
            float *crow = ctx.data() + i * dModel_ + h * headDim_;
            for (int64_t j = 0; j < limit; ++j) {
                const float p = prow[j] * inv;
                prow[j] = p;
                const float *vrow = values + j * kvDim_ + kvh * headDim_;
                for (int64_t d = 0; d < headDim_; ++d)
                    crow[d] += p * vrow[d];
            }
        }
    }
    if (tape != nullptr)
        tape->record(this, std::move(q), std::move(k), std::move(v),
                     std::move(*probsAll));
    return wso_->forward(ctx, tape);
}

Tensor
MultiHeadAttention::backward(const Tensor &dy, const Tape &tape,
                             Gradients &grads) const
{
    LRD_TRACE_SPAN("attn.backward");
    const int64_t t = dy.dim(0);
    const std::vector<Tensor> &saved = tape.at(this);
    const Tensor &q = saved[0];
    const Tensor &k = saved[1];
    const Tensor &v = saved[2];
    const Tensor &probsAll = saved[3];
    require(probsAll.dim(1) == t,
            "MultiHeadAttention::backward: no matching forward");
    Tensor dCtx = wso_->backward(dy, tape, grads);

    const float invSqrt = 1.0F / std::sqrt(static_cast<float>(headDim_));
    Tensor dq({t, dModel_});
    Tensor dk({t, kvDim_});
    Tensor dv({t, kvDim_});

    // Heads within a KV group accumulate into the same dk/dv columns
    // in ascending head order.
    const int64_t group = nHeads_ / kvHeads_;
    thread_local std::vector<float> dprow;
    // lrd-lint: allow(hot-path-alloc) thread_local scratch: grows to the longest sequence a thread sees, reused after
    dprow.resize(static_cast<size_t>(t));
    for (int64_t h = 0; h < nHeads_; ++h) {
        const int64_t kvh = h / group;
        const float *probs = probsAll.data() + h * t * t;
        for (int64_t i = 0; i < t; ++i) {
            const float *prow = probs + i * t;
            const float *dcrow = dCtx.data() + i * dModel_ + h * headDim_;
            const int64_t limit = causal_ ? i + 1 : t;
            // dP = dCtx V^T ; dV += P^T dCtx.
            for (int64_t j = 0; j < limit; ++j) {
                const float *vrow = v.data() + j * kvDim_ + kvh * headDim_;
                float *dvrow = dv.data() + j * kvDim_ + kvh * headDim_;
                float acc = 0.0F;
                const float p = prow[j];
                for (int64_t d = 0; d < headDim_; ++d) {
                    acc += dcrow[d] * vrow[d];
                    dvrow[d] += p * dcrow[d];
                }
                dprow[static_cast<size_t>(j)] = acc;
            }
            // Softmax backward: dS_j = P_j (dP_j - sum_k P_k dP_k).
            float inner = 0.0F;
            for (int64_t j = 0; j < limit; ++j)
                inner += prow[j] * dprow[static_cast<size_t>(j)];
            const float *qrow = q.data() + i * dModel_ + h * headDim_;
            float *dqrow = dq.data() + i * dModel_ + h * headDim_;
            for (int64_t j = 0; j < limit; ++j) {
                const float ds =
                    prow[j] * (dprow[static_cast<size_t>(j)] - inner)
                    * invSqrt;
                const float *krow = k.data() + j * kvDim_ + kvh * headDim_;
                float *dkrow = dk.data() + j * kvDim_ + kvh * headDim_;
                for (int64_t d = 0; d < headDim_; ++d) {
                    dqrow[d] += ds * krow[d];
                    dkrow[d] += ds * qrow[d];
                }
            }
        }
    }

    // Invert RoPE on the gradients (rotation is orthogonal).
    if (rope_ != nullptr) {
        rope_->apply(dq, 0, true, nHeads_);
        rope_->apply(dk, 0, true, kvHeads_);
    }

    Tensor dx = wq_->backward(dq, tape, grads);
    axpy(dx, 1.0F, wk_->backward(dk, tape, grads));
    axpy(dx, 1.0F, wv_->backward(dv, tape, grads));
    return dx;
}

Linear &
MultiHeadAttention::linear(WeightKind kind)
{
    switch (kind) {
      case WeightKind::Query: return *wq_;
      case WeightKind::Key: return *wk_;
      case WeightKind::Value: return *wv_;
      case WeightKind::SelfOutput: return *wso_;
      default:
        panic("MultiHeadAttention::linear: not an attention tensor");
    }
}

std::vector<Parameter *>
MultiHeadAttention::parameters()
{
    std::vector<Parameter *> ps;
    for (Linear *l : {wq_.get(), wk_.get(), wv_.get(), wso_.get()})
        for (Parameter *p : l->parameters())
            ps.push_back(p);
    return ps;
}

int64_t
MultiHeadAttention::paramCount() const
{
    return wq_->paramCount() + wk_->paramCount() + wv_->paramCount()
           + wso_->paramCount();
}

} // namespace lrd
