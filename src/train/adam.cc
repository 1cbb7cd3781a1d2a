#include "adam.h"

#include <cmath>

#include "util/logging.h"

namespace lrd {

AdamW::AdamW(std::vector<Parameter *> params, AdamOptions opts)
    : params_(std::move(params)), opts_(opts)
{
    require(!params_.empty(), "AdamW: no parameters");
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (Parameter *p : params_) {
        m_.emplace_back(p->value.shape());
        v_.emplace_back(p->value.shape());
    }
}

void
AdamW::step(const Gradients &grads, double lrScale)
{
    require(grads.size() == params_.size(), "AdamW::step: ", grads.size(),
            " gradients for ", params_.size(), " parameters");
    ++t_;

    double norm2 = 0.0;
    for (size_t k = 0; k < grads.size(); ++k)
        for (int64_t i = 0; i < grads[k].size(); ++i)
            norm2 += static_cast<double>(grads[k][i]) * grads[k][i];
    const double gradNorm = std::sqrt(norm2);

    double clipScale = 1.0;
    if (opts_.clipNorm > 0.0 && gradNorm > opts_.clipNorm)
        clipScale = opts_.clipNorm / gradNorm;

    const double lr = opts_.lr * lrScale;
    const double bc1 = 1.0 - std::pow(opts_.beta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(opts_.beta2, static_cast<double>(t_));

    for (size_t k = 0; k < params_.size(); ++k) {
        Parameter *p = params_[k];
        const Tensor &grad = grads[k];
        Tensor &m = m_[k];
        Tensor &v = v_[k];
        for (int64_t i = 0; i < p->value.size(); ++i) {
            const double g = grad[i] * clipScale;
            m[i] = static_cast<float>(opts_.beta1 * m[i]
                                      + (1.0 - opts_.beta1) * g);
            v[i] = static_cast<float>(opts_.beta2 * v[i]
                                      + (1.0 - opts_.beta2) * g * g);
            const double mhat = m[i] / bc1;
            const double vhat = v[i] / bc2;
            double update = mhat / (std::sqrt(vhat) + opts_.eps);
            // Decoupled weight decay (not applied to 1-D params:
            // norms and biases).
            if (p->value.rank() >= 2)
                update += opts_.weightDecay * p->value[i];
            p->value[i] -= static_cast<float>(lr * update);
        }
    }
}

void
AdamW::serializeState(ByteWriter &w) const
{
    w.putU64(static_cast<uint64_t>(t_));
    w.putU64(m_.size());
    for (size_t k = 0; k < m_.size(); ++k) {
        w.putFloats(m_[k].storage());
        w.putFloats(v_[k].storage());
    }
}

Status
AdamW::restoreState(ByteReader &r)
{
    const auto t = static_cast<int64_t>(r.getU64());
    const uint64_t count = r.getU64();
    if (count != m_.size())
        return Status(StatusCode::InvalidArgument, "adam.restore",
                      strCat("checkpoint has ", count,
                             " optimizer slots, this model has ",
                             m_.size()));
    std::vector<std::vector<float>> ms(count);
    std::vector<std::vector<float>> vs(count);
    for (size_t k = 0; k < count; ++k) {
        ms[k] = r.getFloats();
        vs[k] = r.getFloats();
        if (ms[k].size() != m_[k].storage().size()
            || vs[k].size() != v_[k].storage().size())
            return Status(StatusCode::InvalidArgument, "adam.restore",
                          strCat("optimizer slot ", k,
                                 " shape mismatch against checkpoint"));
    }
    for (size_t k = 0; k < count; ++k) {
        m_[k].storage() = std::move(ms[k]);
        v_[k].storage() = std::move(vs[k]);
    }
    t_ = t;
    return Status();
}

double
cosineSchedule(int64_t step, int64_t warmupSteps, int64_t totalSteps,
               double minScale)
{
    require(totalSteps > 0, "cosineSchedule: totalSteps must be positive");
    if (warmupSteps > 0 && step < warmupSteps)
        return static_cast<double>(step + 1) /
               static_cast<double>(warmupSteps);
    const double progress =
        static_cast<double>(step - warmupSteps)
        / static_cast<double>(std::max<int64_t>(1, totalSteps - warmupSteps));
    const double clamped = std::min(1.0, std::max(0.0, progress));
    return minScale
           + (1.0 - minScale) * 0.5 * (1.0 + std::cos(M_PI * clamped));
}

} // namespace lrd
