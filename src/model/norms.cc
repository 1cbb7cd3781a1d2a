#include "norms.h"

#include <cmath>

#include "model/train_mode.h"
#include "util/logging.h"

namespace lrd {

RmsNorm::RmsNorm(int64_t dim, const std::string &name) : dim_(dim)
{
    w_ = Parameter(name + ".w", Tensor::ones({dim}));
}

Tensor
RmsNorm::forward(const Tensor &x) const
{
    require(x.rank() == 2 && x.dim(1) == dim_, "RmsNorm::forward: bad input ",
            x.shape());
    const int64_t n = x.dim(0);
    // As in Linear::forward: keep the input only for a backward().
    const bool training = trainingModeActive();
    if (training) {
        cachedX_ = x;
        cachedInvRms_.resize(static_cast<size_t>(n));
    }
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
        if (training)
            cachedInvRms_[static_cast<size_t>(i)] = inv;
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j)
            out[j] = row[j] * inv * w_.value[j];
    }
    return y;
}

Tensor
RmsNorm::backward(const Tensor &dy)
{
    require(dy.shape() == cachedX_.shape(),
            "RmsNorm::backward: no matching forward cached");
    const int64_t n = dy.dim(0);
    Tensor dx(dy.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *xrow = cachedX_.data() + i * dim_;
        const float *dyrow = dy.data() + i * dim_;
        float *dxrow = dx.data() + i * dim_;
        const float s = cachedInvRms_[static_cast<size_t>(i)];
        double inner = 0.0; // sum_k dy_k w_k x_k
        for (int64_t j = 0; j < dim_; ++j) {
            inner += static_cast<double>(dyrow[j]) * w_.value[j] * xrow[j];
            w_.grad[j] += dyrow[j] * xrow[j] * s;
        }
        const float c =
            static_cast<float>(inner) * s * s * s / static_cast<float>(dim_);
        for (int64_t j = 0; j < dim_; ++j)
            dxrow[j] = dyrow[j] * w_.value[j] * s - xrow[j] * c;
    }
    return dx;
}

void
RmsNorm::clearCache()
{
    cachedX_ = Tensor();
    cachedInvRms_.clear();
}

LayerNorm::LayerNorm(int64_t dim, const std::string &name) : dim_(dim)
{
    w_ = Parameter(name + ".w", Tensor::ones({dim}));
    b_ = Parameter(name + ".b", Tensor({dim}));
}

Tensor
LayerNorm::forward(const Tensor &x) const
{
    require(x.rank() == 2 && x.dim(1) == dim_,
            "LayerNorm::forward: bad input ", x.shape());
    const int64_t n = x.dim(0);
    const bool training = trainingModeActive();
    if (training) {
        cachedXhat_ = Tensor(x.shape());
        cachedInvStd_.resize(static_cast<size_t>(n));
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
        if (training)
            cachedInvStd_[static_cast<size_t>(i)] = inv;
        float *xhatRow = training ? cachedXhat_.data() + i * dim_ : nullptr;
        float *out = y.data() + i * dim_;
        for (int64_t j = 0; j < dim_; ++j) {
            const float xhat = (row[j] - static_cast<float>(mean)) * inv;
            if (xhatRow != nullptr)
                xhatRow[j] = xhat;
            out[j] = xhat * w_.value[j] + b_.value[j];
        }
    }
    return y;
}

Tensor
LayerNorm::backward(const Tensor &dy)
{
    require(dy.shape() == cachedXhat_.shape(),
            "LayerNorm::backward: no matching forward cached");
    const int64_t n = dy.dim(0);
    Tensor dx(dy.shape());
    for (int64_t i = 0; i < n; ++i) {
        const float *dyrow = dy.data() + i * dim_;
        const float *xhat = cachedXhat_.data() + i * dim_;
        float *dxrow = dx.data() + i * dim_;
        const float inv = cachedInvStd_[static_cast<size_t>(i)];
        double meanDxhat = 0.0, meanDxhatXhat = 0.0;
        for (int64_t j = 0; j < dim_; ++j) {
            const double dxhat = static_cast<double>(dyrow[j]) * w_.value[j];
            meanDxhat += dxhat;
            meanDxhatXhat += dxhat * xhat[j];
            w_.grad[j] += dyrow[j] * xhat[j];
            b_.grad[j] += dyrow[j];
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

void
LayerNorm::clearCache()
{
    cachedXhat_ = Tensor();
    cachedInvStd_.clear();
}

} // namespace lrd
