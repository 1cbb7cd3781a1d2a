#include "transformer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "tensor/ops.h"
#include "util/cache.h"
#include "util/logging.h"

namespace lrd {

namespace {

/**
 * Layer-boundary guard: report the first non-finite activation with
 * the layer that produced it. The "model.block" nan fault poisons one
 * element first, so the guard path itself is exercisable in tests.
 */
void
guardBlockOutput(Tensor &h, int64_t layerIdx)
{
    if (faultAt("model.block", FaultKind::Nan) && h.size() > 0)
        h[0] = std::numeric_limits<float>::quiet_NaN();
    pollCancelFault("model.block");
    const int64_t bad = firstNonFinite(h.data(), h.size());
    if (bad >= 0)
        reportNonFinite("model.block", layerIdx, bad);
}

} // namespace

TransformerBlock::TransformerBlock(const ModelConfig &cfg, int64_t layerIdx,
                                   Rng *rng)
    : arch_(cfg.arch)
{
    const std::string base = strCat("layer", layerIdx, ".");
    if (arch_ == Arch::LlamaStyle) {
        rms1_ = std::make_unique<RmsNorm>(cfg.dModel, base + "rms1");
        rms2_ = std::make_unique<RmsNorm>(cfg.dModel, base + "rms2");
    } else {
        ln1_ = std::make_unique<LayerNorm>(cfg.dModel, base + "ln1");
        ln2_ = std::make_unique<LayerNorm>(cfg.dModel, base + "ln2");
    }
    attn_ = std::make_unique<MultiHeadAttention>(cfg, layerIdx, rng);
    mlp_ = std::make_unique<Mlp>(cfg, layerIdx, rng);
}

Tensor
TransformerBlock::forward(const Tensor &x, Tape *tape, KvCache *cache) const
{
    if (arch_ == Arch::LlamaStyle) {
        // Pre-norm: x + attn(rms1(x)), then + mlp(rms2(.)).
        Tensor a =
            add(x, attn_->forward(rms1_->forward(x, tape), tape, cache));
        return add(a, mlp_->forward(rms2_->forward(a, tape), tape));
    }
    // Post-norm: ln1(x + attn(x)), then ln2(a + mlp(a)).
    Tensor a = ln1_->forward(add(x, attn_->forward(x, tape, cache)), tape);
    return ln2_->forward(add(a, mlp_->forward(a, tape)), tape);
}

Tensor
TransformerBlock::backward(const Tensor &dy, const Tape &tape,
                           Gradients &grads) const
{
    if (arch_ == Arch::LlamaStyle) {
        Tensor da = dy;
        axpy(da, 1.0F,
             rms2_->backward(mlp_->backward(dy, tape, grads), tape, grads));
        Tensor dx = da;
        axpy(dx, 1.0F,
             rms1_->backward(attn_->backward(da, tape, grads), tape, grads));
        return dx;
    }
    Tensor dIn2 = ln2_->backward(dy, tape, grads);
    Tensor da = dIn2;
    axpy(da, 1.0F, mlp_->backward(dIn2, tape, grads));
    Tensor dIn1 = ln1_->backward(da, tape, grads);
    Tensor dx = dIn1;
    axpy(dx, 1.0F, attn_->backward(dIn1, tape, grads));
    return dx;
}

Linear &
TransformerBlock::linear(WeightKind kind)
{
    switch (kind) {
      case WeightKind::Query:
      case WeightKind::Key:
      case WeightKind::Value:
      case WeightKind::SelfOutput:
        return attn_->linear(kind);
      default:
        return mlp_->linear(kind);
    }
}

std::vector<Parameter *>
TransformerBlock::parameters()
{
    std::vector<Parameter *> ps;
    auto append = [&](std::vector<Parameter *> more) {
        ps.insert(ps.end(), more.begin(), more.end());
    };
    if (arch_ == Arch::LlamaStyle) {
        append(rms1_->parameters());
        append(rms2_->parameters());
    } else {
        append(ln1_->parameters());
        append(ln2_->parameters());
    }
    append(attn_->parameters());
    append(mlp_->parameters());
    return ps;
}

int64_t
TransformerBlock::paramCount() const
{
    int64_t n = attn_->paramCount() + mlp_->paramCount();
    if (arch_ == Arch::LlamaStyle)
        n += 2 * rms1_->parameters()[0]->size();
    else
        n += 2
             * (ln1_->parameters()[0]->size()
                + ln1_->parameters()[1]->size());
    return n;
}

TransformerModel::TransformerModel(const ModelConfig &cfg, uint64_t seed)
    : TransformerModel(cfg, std::optional<Rng>(seed))
{
}

TransformerModel::TransformerModel(const ModelConfig &cfg,
                                   std::optional<Rng> init)
    : cfg_(cfg)
{
    cfg_.validate();
    Rng *rng = init ? &*init : nullptr;
    embedding_ = std::make_unique<Embedding>(
        cfg_.vocabSize, cfg_.dModel, cfg_.maxSeq,
        cfg_.arch == Arch::BertStyle, "emb", rng);
    blocks_.reserve(static_cast<size_t>(cfg_.nLayers));
    for (int64_t i = 0; i < cfg_.nLayers; ++i)
        blocks_.push_back(std::make_unique<TransformerBlock>(cfg_, i, rng));
    if (cfg_.arch == Arch::LlamaStyle)
        finalNorm_ = std::make_unique<RmsNorm>(cfg_.dModel, "final_norm");
    lmHead_ = std::make_unique<Linear>(cfg_.vocabSize, cfg_.dModel, false,
                                       "lm_head", rng);
}

Tensor
TransformerModel::forward(const TokenSeq &tokens, Tape *tape) const
{
    return walk(tokens, tape, nullptr);
}

Tensor
TransformerModel::walk(const TokenSeq &tokens, Tape *tape,
                       KvCache *caches) const
{
    const int64_t start = caches != nullptr ? caches[0].len : 0;
    require(start + static_cast<int64_t>(tokens.size()) <= cfg_.maxSeq,
            "TransformerModel: ", tokens.size(), " tokens at position ",
            start, " exceed maxSeq ", cfg_.maxSeq);
    Tensor h = embedding_->forward(tokens, start);
    for (size_t l = 0; l < blocks_.size(); ++l) {
        h = blocks_[l]->forward(h, tape,
                                caches != nullptr ? &caches[l] : nullptr);
        guardBlockOutput(h, static_cast<int64_t>(l));
    }
    if (finalNorm_)
        h = finalNorm_->forward(h, tape);
    return lmHead_->forward(h, tape);
}

namespace {

/**
 * Cross-entropy on logits rows with target >= 0; fills dLogits with
 * (softmax - onehot) / numSupervised when dLogits != nullptr.
 */
double
crossEntropy(const Tensor &logits, const std::vector<int> &targets,
             Tensor *dLogits)
{
    const int64_t t = logits.dim(0);
    const int64_t v = logits.dim(1);
    require(static_cast<int64_t>(targets.size()) == t,
            "crossEntropy: target length mismatch");
    int64_t supervised = 0;
    for (int tgt : targets)
        if (tgt >= 0)
            ++supervised;
    require(supervised > 0, "crossEntropy: no supervised positions");

    Tensor logProbs = logSoftmaxLastDim(logits);
    double loss = 0.0;
    if (dLogits != nullptr)
        *dLogits = Tensor(logits.shape());
    const double invN = 1.0 / static_cast<double>(supervised);
    for (int64_t i = 0; i < t; ++i) {
        const int tgt = targets[static_cast<size_t>(i)];
        if (tgt < 0)
            continue;
        require(tgt < v, "crossEntropy: target out of vocab");
        loss -= logProbs(i, tgt);
        if (dLogits != nullptr) {
            const float *lp = logProbs.data() + i * v;
            float *dl = dLogits->data() + i * v;
            for (int64_t j = 0; j < v; ++j)
                dl[j] = static_cast<float>(std::exp(lp[j]) * invN);
            dl[tgt] -= static_cast<float>(invN);
        }
    }
    return loss * invN;
}

} // namespace

double
TransformerModel::lossAndGrad(const TokenSeq &tokens,
                              const std::vector<int> &targets,
                              Gradients &grads) const
{
    Tape tape;
    Tensor logits = forward(tokens, &tape);
    Tensor dLogits;
    const double loss = crossEntropy(logits, targets, &dLogits);

    Tensor dh = lmHead_->backward(dLogits, tape, grads);
    if (finalNorm_)
        dh = finalNorm_->backward(dh, tape, grads);
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
        dh = (*it)->backward(dh, tape, grads);
    embedding_->backward(tokens, dh, grads);
    return loss;
}

double
TransformerModel::loss(const TokenSeq &tokens,
                       const std::vector<int> &targets) const
{
    Tensor logits = forward(tokens);
    return crossEntropy(logits, targets, nullptr);
}

std::vector<Parameter *>
TransformerModel::parameters()
{
    std::vector<Parameter *> ps;
    auto append = [&](std::vector<Parameter *> more) {
        ps.insert(ps.end(), more.begin(), more.end());
    };
    append(embedding_->parameters());
    for (auto &b : blocks_)
        append(b->parameters());
    if (finalNorm_)
        append(finalNorm_->parameters());
    append(lmHead_->parameters());
    return ps;
}

Linear &
TransformerModel::linear(int64_t layer, WeightKind kind)
{
    require(layer >= 0 && layer < numLayers(),
            "TransformerModel::linear: layer ", layer, " out of range");
    return blocks_[static_cast<size_t>(layer)]->linear(kind);
}

int64_t
TransformerModel::paramCount() const
{
    int64_t n = lmHead_->paramCount();
    for (const auto &b : blocks_)
        n += b->paramCount();
    for (Parameter *p : embedding_->parameters())
        n += p->size();
    if (finalNorm_)
        n += finalNorm_->parameters()[0]->size();
    return n;
}

std::vector<uint8_t>
TransformerModel::serialize() const
{
    ByteWriter w;
    w.putString("lrd-model-v3");
    w.putString(cfg_.name);
    w.putU32(cfg_.arch == Arch::LlamaStyle ? 0 : 1);
    w.putU64(static_cast<uint64_t>(cfg_.vocabSize));
    w.putU64(static_cast<uint64_t>(cfg_.dModel));
    w.putU64(static_cast<uint64_t>(cfg_.nLayers));
    w.putU64(static_cast<uint64_t>(cfg_.nHeads));
    w.putU64(static_cast<uint64_t>(cfg_.nKvHeads));
    w.putU64(static_cast<uint64_t>(cfg_.dFf));
    w.putU64(static_cast<uint64_t>(cfg_.maxSeq));

    // Factorization manifest: which (layer, tensor) pairs are stored
    // as Tucker factors, and at what rank.
    std::vector<std::tuple<uint64_t, uint32_t, uint64_t>> manifest;
    for (int64_t l = 0; l < numLayers(); ++l) {
        for (WeightKind kind : decomposableKinds(cfg_.arch)) {
            const Linear &lin = blocks_[static_cast<size_t>(l)]->linear(kind);
            if (lin.isFactorized())
                manifest.emplace_back(static_cast<uint64_t>(l),
                                      static_cast<uint32_t>(kind),
                                      static_cast<uint64_t>(
                                          lin.prunedRank()));
        }
    }
    w.putU64(manifest.size());
    for (const auto &[layer, kind, rank] : manifest) {
        w.putU64(layer);
        w.putU32(kind);
        w.putU64(rank);
    }

    // parameters(), read through the layers' pointers.
    std::vector<Parameter *> params = embedding_->parameters();
    for (const auto &b : blocks_)
        for (Parameter *p : b->parameters())
            params.push_back(p);
    if (finalNorm_)
        params.push_back(finalNorm_->parameters()[0]);
    for (Parameter *p : lmHead_->parameters())
        params.push_back(p);
    // Reserve the rest of the payload: the weights dominate it, and
    // growing the buffer by doubling would copy them several times.
    size_t payload = w.bytes().size() + sizeof(uint64_t);
    for (const Parameter *p : params)
        payload += 2 * sizeof(uint64_t) + p->name.size()
                   + sizeof(float) * static_cast<size_t>(p->size());
    w.reserve(payload);
    w.putU64(params.size());
    for (Parameter *p : params) {
        w.putString(p->name);
        w.putFloats(p->value.storage());
    }
    return std::move(w).bytes();
}

TransformerModel
TransformerModel::deserialize(std::vector<uint8_t> bytes)
{
    ByteReader r(std::move(bytes));
    const std::string magic = r.getString();
    require(magic == "lrd-model-v3",
            "TransformerModel::deserialize: bad magic");
    ModelConfig cfg;
    cfg.name = r.getString();
    cfg.arch = r.getU32() == 0 ? Arch::LlamaStyle : Arch::BertStyle;
    cfg.vocabSize = static_cast<int64_t>(r.getU64());
    cfg.dModel = static_cast<int64_t>(r.getU64());
    cfg.nLayers = static_cast<int64_t>(r.getU64());
    cfg.nHeads = static_cast<int64_t>(r.getU64());
    cfg.nKvHeads = static_cast<int64_t>(r.getU64());
    cfg.dFf = static_cast<int64_t>(r.getU64());
    cfg.maxSeq = static_cast<int64_t>(r.getU64());
    cfg.validate();

    // The never-factorized tensors, all dModel wide, must follow in
    // full: token embedding and lm_head (vocab rows each), then two
    // RMSNorm scales per layer plus the final one (Llama) or learned
    // positions plus two LayerNorm scale/bias pairs per layer (BERT).
    // A hostile header fails here, before anything is allocated; in
    // double, a size past 2^53 stays far above any stream's length.
    const double rows =
        2.0 * static_cast<double>(cfg.vocabSize)
        + (cfg.arch == Arch::LlamaStyle
               ? 2.0 * static_cast<double>(cfg.nLayers) + 1.0
               : static_cast<double>(cfg.maxSeq)
                     + 4.0 * static_cast<double>(cfg.nLayers));
    const double minBytes =
        rows * static_cast<double>(cfg.dModel) * sizeof(float);
    require(minBytes <= static_cast<double>(r.remaining()),
            "TransformerModel::deserialize: header declares ", minBytes,
            " bytes of embedding, norm and lm_head weights, but only ",
            r.remaining(), " bytes follow");

    TransformerModel model(cfg, std::nullopt);
    const std::vector<WeightKind> kinds = decomposableKinds(cfg.arch);
    const uint64_t nFactorized = r.getU64();
    for (uint64_t i = 0; i < nFactorized; ++i) {
        const auto layer = static_cast<int64_t>(r.getU64());
        const auto kind = static_cast<WeightKind>(r.getU32());
        const auto rank = static_cast<int64_t>(r.getU64());
        require(std::count(kinds.begin(), kinds.end(), kind) == 1,
                "TransformerModel::deserialize: manifest entry ", i,
                " names no tensor this architecture factorizes");
        model.linear(layer, kind).installFactorShape(rank);
    }
    auto params = model.parameters();
    const uint64_t n = r.getU64();
    require(n == params.size(),
            "TransformerModel::deserialize: parameter count ", n,
            " != expected ", params.size());
    for (Parameter *p : params) {
        const std::string name = r.getString();
        require(name == p->name, "TransformerModel::deserialize: expected ",
                p->name, ", found ", name);
        std::vector<float> data = r.getFloats();
        require(static_cast<int64_t>(data.size()) == p->value.size(),
                "TransformerModel::deserialize: size mismatch for ", name);
        p->value.storage() = std::move(data);
    }
    return model;
}

InferenceSession::InferenceSession(const TransformerModel &model)
    : model_(&model)
{
    require(model.config().arch == Arch::LlamaStyle,
            "InferenceSession: KV-cache decoding is decoder-only");
}

void
InferenceSession::truncate(int64_t n)
{
    require(n >= 0 && n <= length(), "InferenceSession::truncate: length ", n,
            " outside [0, ", length(), "]");
    for (KvCache &cache : caches_)
        cache.len = n;
}

Tensor
InferenceSession::append(const TokenSeq &tokens)
{
    require(!tokens.empty(), "InferenceSession::append: empty input");
    if (caches_.empty()) {
        // lrd-lint: allow(hot-path-alloc) one empty cache per layer, on a session's first append
        caches_.resize(static_cast<size_t>(model_->numLayers()));
    }
    const Tensor logits = model_->walk(tokens, nullptr, caches_.data());
    // Return the last row only.
    const int64_t v = logits.dim(1);
    Tensor last({v});
    const float *src = logits.data() + (logits.dim(0) - 1) * v;
    for (int64_t j = 0; j < v; ++j)
        last[j] = src[j];
    return last;
}

double
InferenceSession::scoreContinuation(const Tensor &lastLogProbs,
                                    const TokenSeq &continuation)
{
    require(!continuation.empty(),
            "InferenceSession::scoreContinuation: empty continuation");
    double total = lastLogProbs[continuation[0]];
    for (size_t i = 1; i < continuation.size(); ++i) {
        const Tensor logits = append({continuation[i - 1]});
        total += logSoftmaxLastDim(logits)[continuation[i]];
    }
    return total;
}

double
scoreContinuation(const TransformerModel &model, const TokenSeq &context,
                  const TokenSeq &continuation)
{
    require(!context.empty(), "scoreContinuation: empty context");
    InferenceSession session(model);
    const Tensor contextLogProbs = logSoftmaxLastDim(session.append(context));
    return session.scoreContinuation(contextLogProbs, continuation);
}

TokenSeq
greedyGenerate(const TransformerModel &model, const TokenSeq &prompt,
               int maxNew, int stopToken)
{
    require(!prompt.empty(), "greedyGenerate: empty prompt");
    InferenceSession session(model);
    Tensor logits = session.append(prompt);
    TokenSeq out;
    const int64_t maxSeq = model.config().maxSeq;
    for (int i = 0; i < maxNew && session.length() < maxSeq; ++i) {
        int best = 0;
        for (int64_t j = 1; j < logits.dim(0); ++j)
            if (logits[j] > logits[best])
                best = static_cast<int>(j);
        if (best == stopToken)
            break;
        out.push_back(best);
        if (session.length() + 1 <= maxSeq && i + 1 < maxNew)
            logits = session.append({best});
    }
    return out;
}

} // namespace lrd
