#include "mlp.h"

#include <cmath>

#include "model/tape.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

namespace {

float
sigmoidf(float x)
{
    return 1.0F / (1.0F + std::exp(-x));
}

/** d/dx silu(x). */
float
siluGrad(float x)
{
    const float s = sigmoidf(x);
    return s * (1.0F + x * (1.0F - s));
}

/** d/dx gelu(x) for the tanh approximation. */
float
geluGrad(float x)
{
    constexpr float kC = 0.7978845608028654F; // sqrt(2/pi)
    const float x3 = x * x * x;
    const float inner = kC * (x + 0.044715F * x3);
    const float t = std::tanh(inner);
    const float dInner = kC * (1.0F + 3.0F * 0.044715F * x * x);
    return 0.5F * (1.0F + t) + 0.5F * x * (1.0F - t * t) * dInner;
}

} // namespace

Mlp::Mlp(const ModelConfig &cfg, int64_t layerIdx, Rng *rng)
    : arch_(cfg.arch)
{
    const std::string base = strCat("layer", layerIdx, ".mlp.");
    if (arch_ == Arch::LlamaStyle) {
        wg_ = std::make_unique<Linear>(cfg.dFf, cfg.dModel, false,
                                       base + "wg", rng);
        wu_ = std::make_unique<Linear>(cfg.dFf, cfg.dModel, false,
                                       base + "wu", rng);
        wd_ = std::make_unique<Linear>(cfg.dModel, cfg.dFf, false,
                                       base + "wd", rng);
    } else {
        wg_ = std::make_unique<Linear>(cfg.dFf, cfg.dModel, true,
                                       base + "wint", rng);
        wd_ = std::make_unique<Linear>(cfg.dModel, cfg.dFf, true,
                                       base + "wout", rng);
    }
    if (rng == nullptr)
        return;
    // Residual-output init scaling (see MultiHeadAttention).
    const float scale =
        1.0F / std::sqrt(2.0F * static_cast<float>(cfg.nLayers));
    for (int64_t i = 0; i < wd_->weight().value.size(); ++i)
        wd_->weight().value[i] *= scale;
}

Tensor
Mlp::forward(const Tensor &x, Tape *tape) const
{
    const bool llama = arch_ == Arch::LlamaStyle;
    Tensor gatePre = wg_->forward(x, tape);
    Tensor up = llama ? wu_->forward(x, tape) : Tensor();
    const Tensor h = llama ? hadamard(silu(gatePre), up) : gelu(gatePre);
    if (tape != nullptr)
        tape->record(this, std::move(gatePre), std::move(up));
    return wd_->forward(h, tape);
}

Tensor
Mlp::backward(const Tensor &dy, const Tape &tape, Gradients &grads) const
{
    const std::vector<Tensor> &saved = tape.at(this);
    const Tensor &gatePre = saved[0];
    Tensor dh = wd_->backward(dy, tape, grads);
    if (arch_ == Arch::LlamaStyle) {
        // h = silu(g) * u.
        const Tensor &up = saved[1];
        Tensor dg(gatePre.shape());
        Tensor du(up.shape());
        const float *g = gatePre.data();
        const float *u = up.data();
        const float *dhp = dh.data();
        float *dgp = dg.data();
        float *dup = du.data();
        for (int64_t i = 0; i < dh.size(); ++i) {
            const float sg = g[i] / (1.0F + std::exp(-g[i])); // silu(g)
            dup[i] = dhp[i] * sg;
            dgp[i] = dhp[i] * u[i] * siluGrad(g[i]);
        }
        Tensor dx = wg_->backward(dg, tape, grads);
        axpy(dx, 1.0F, wu_->backward(du, tape, grads));
        return dx;
    }
    // h = gelu(g).
    Tensor dg(gatePre.shape());
    const float *g = gatePre.data();
    const float *dhp = dh.data();
    float *dgp = dg.data();
    for (int64_t i = 0; i < dh.size(); ++i)
        dgp[i] = dhp[i] * geluGrad(g[i]);
    return wg_->backward(dg, tape, grads);
}

Linear &
Mlp::linear(WeightKind kind)
{
    switch (kind) {
      case WeightKind::Gate:
        require(arch_ == Arch::LlamaStyle, "Mlp::linear: Gate is Llama-only");
        return *wg_;
      case WeightKind::Up:
        require(arch_ == Arch::LlamaStyle, "Mlp::linear: Up is Llama-only");
        return *wu_;
      case WeightKind::Down:
        require(arch_ == Arch::LlamaStyle, "Mlp::linear: Down is Llama-only");
        return *wd_;
      case WeightKind::Intermediate:
        require(arch_ == Arch::BertStyle,
                "Mlp::linear: Intermediate is BERT-only");
        return *wg_;
      case WeightKind::Output:
        require(arch_ == Arch::BertStyle, "Mlp::linear: Output is BERT-only");
        return *wd_;
      default:
        panic("Mlp::linear: not an MLP tensor");
    }
}

std::vector<Parameter *>
Mlp::parameters()
{
    std::vector<Parameter *> ps;
    for (Linear *l : {wg_.get(), wu_.get(), wd_.get()}) {
        if (l == nullptr)
            continue;
        for (Parameter *p : l->parameters())
            ps.push_back(p);
    }
    return ps;
}

int64_t
Mlp::paramCount() const
{
    int64_t n = wg_->paramCount() + wd_->paramCount();
    if (wu_)
        n += wu_->paramCount();
    return n;
}

} // namespace lrd
