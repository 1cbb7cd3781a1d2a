#include "norms.h"

#include <cmath>
#include <optional>

#include "model/tape.h"
#include "util/logging.h"

namespace lrd {

RmsNorm::RmsNorm(int64_t dim, const std::string &name) : dim_(dim)
{
    w_ = Parameter(name + ".w", Tensor::ones({dim}));
}

Tensor
RmsNorm::forward(const Tensor &x, Tape *tape) const
{
    require(x.rank() == 2 && x.dim(1) == dim_, "RmsNorm::forward: bad input ",
            x.shape());
    const int64_t n = x.dim(0);
    // Each row's 1/rms, kept only for a backward().
    std::optional<Tensor> invRms;
    if (tape != nullptr)
        invRms = Tensor({n});
    Tensor y(x.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *row = x.data() + i * dim_;
        double ms = 0.0;
        for (int64_t j = 0; j < dim_; ++j)
            ms += static_cast<double>(row[j]) * row[j];
        const float inv =
            1.0F /
            std::sqrt(static_cast<float>(ms / static_cast<double>(dim_)) +
                      kEps);
        if (invRms)
            (*invRms)[i] = inv;
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j)
            out[j] = row[j] * inv * w_.value[j];
    }
    if (tape != nullptr)
        tape->record(this, x, std::move(*invRms));
    return y;
}

Tensor
RmsNorm::backward(const Tensor &dy, const Tape &tape, Gradients &grads) const
{
    const std::vector<Tensor> &saved = tape.at(this);
    const Tensor &x = saved[0];
    const Tensor &invRms = saved[1];
    require(dy.shape() == x.shape(), "RmsNorm::backward: no matching forward");
    Tensor &dw = grads.of(w_);
    const int64_t n = dy.dim(0);
    Tensor dx(dy.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *xrow = x.data() + i * dim_;
        const float *dyrow = dy.data() + i * dim_;
        float *dxrow = dx.data() + i * dim_;
        const float s = invRms[i];
        double inner = 0.0; // sum_k dy_k w_k x_k
        for (int64_t j = 0; j < dim_; ++j) {
            inner += static_cast<double>(dyrow[j]) * w_.value[j] * xrow[j];
            dw[j] += dyrow[j] * xrow[j] * s;
        }
        const float c =
            static_cast<float>(inner) * s * s * s / static_cast<float>(dim_);
        for (int64_t j = 0; j < dim_; ++j)
            dxrow[j] = dyrow[j] * w_.value[j] * s - xrow[j] * c;
    }
    return dx;
}

LayerNorm::LayerNorm(int64_t dim, const std::string &name) : dim_(dim)
{
    w_ = Parameter(name + ".w", Tensor::ones({dim}));
    b_ = Parameter(name + ".b", Tensor({dim}));
}

Tensor
LayerNorm::forward(const Tensor &x, Tape *tape) const
{
    require(x.rank() == 2 && x.dim(1) == dim_,
            "LayerNorm::forward: bad input ", x.shape());
    const int64_t n = x.dim(0);
    // The normalized rows and each row's 1/std, kept only for backward().
    std::optional<Tensor> xhatAll;
    std::optional<Tensor> invStd;
    if (tape != nullptr) {
        xhatAll = Tensor(x.shape());
        invStd = Tensor({n});
    }
    Tensor y(x.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *row = x.data() + i * dim_;
        double mean = 0.0;
        for (int64_t j = 0; j < dim_; ++j)
            mean += row[j];
        mean /= static_cast<double>(dim_);
        double var = 0.0;
        for (int64_t j = 0; j < dim_; ++j) {
            const double d = row[j] - mean;
            var += d * d;
        }
        var /= static_cast<double>(dim_);
        const float inv = 1.0F / std::sqrt(static_cast<float>(var) + kEps);
        if (invStd)
            (*invStd)[i] = inv;
        float *xhatRow = xhatAll ? xhatAll->data() + i * dim_ : nullptr;
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j) {
            const float xhat = (row[j] - static_cast<float>(mean)) * inv;
            if (xhatRow != nullptr)
                xhatRow[j] = xhat;
            out[j] = xhat * w_.value[j] + b_.value[j];
        }
    }
    if (tape != nullptr)
        tape->record(this, std::move(*xhatAll), std::move(*invStd));
    return y;
}

Tensor
LayerNorm::backward(const Tensor &dy, const Tape &tape,
                    Gradients &grads) const
{
    const std::vector<Tensor> &saved = tape.at(this);
    const Tensor &xhatAll = saved[0];
    const Tensor &invStd = saved[1];
    require(dy.shape() == xhatAll.shape(),
            "LayerNorm::backward: no matching forward");
    Tensor &dw = grads.of(w_);
    Tensor &db = grads.of(b_);
    const int64_t n = dy.dim(0);
    Tensor dx(dy.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *dyrow = dy.data() + i * dim_;
        const float *xhat = xhatAll.data() + i * dim_;
        float *dxrow = dx.data() + i * dim_;
        const float inv = invStd[i];
        double meanDxhat = 0.0, meanDxhatXhat = 0.0;
        for (int64_t j = 0; j < dim_; ++j) {
            const double dxhat = static_cast<double>(dyrow[j]) * w_.value[j];
            meanDxhat += dxhat;
            meanDxhatXhat += dxhat * xhat[j];
            dw[j] += dyrow[j] * xhat[j];
            db[j] += dyrow[j];
        }
        meanDxhat /= static_cast<double>(dim_);
        meanDxhatXhat /= static_cast<double>(dim_);
        for (int64_t j = 0; j < dim_; ++j) {
            const double dxhat = static_cast<double>(dyrow[j]) * w_.value[j];
            dxrow[j] = static_cast<float>(
                inv * (dxhat - meanDxhat - xhat[j] * meanDxhatXhat));
        }
    }
    return dx;
}

} // namespace lrd
