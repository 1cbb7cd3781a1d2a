#include "tensor.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/memprobe.h"

namespace lrd {

int64_t
numElements(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        if (d < 0)
            fatal(strCat("numElements: negative extent in ", shape));
        n *= d;
    }
    return n;
}

void
Tensor::accountAlloc()
{
    accountedBytes_ =
        static_cast<int64_t>(data_.size() * sizeof(float));
    tensorArenaRecordAlloc(accountedBytes_);
}

Tensor::Tensor() : shape_(), data_(1, 0.0F)
{
    accountAlloc();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(numElements(shape_)), 0.0F)
{
    accountAlloc();
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    require(static_cast<int64_t>(data_.size()) == numElements(shape_),
            "Tensor: data size ", data_.size(), " != shape ", shape_);
    accountAlloc();
}

Tensor::~Tensor()
{
    tensorArenaRecordFree(accountedBytes_);
}

Tensor::Tensor(const Tensor &other)
    : shape_(other.shape_), data_(other.data_)
{
    accountAlloc();
}

Tensor::Tensor(Tensor &&other) noexcept
    : shape_(std::move(other.shape_)), data_(std::move(other.data_)),
      accountedBytes_(other.accountedBytes_)
{
    other.accountedBytes_ = 0;
}

Tensor &
Tensor::operator=(const Tensor &other)
{
    if (this == &other)
        return *this;
    tensorArenaRecordFree(accountedBytes_);
    shape_ = other.shape_;
    data_ = other.data_;
    accountAlloc();
    return *this;
}

Tensor &
Tensor::operator=(Tensor &&other) noexcept
{
    if (this == &other)
        return *this;
    tensorArenaRecordFree(accountedBytes_);
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    accountedBytes_ = other.accountedBytes_;
    other.accountedBytes_ = 0;
    return *this;
}

Tensor
Tensor::zeros(Shape shape)
{
    return Tensor(std::move(shape));
}

Tensor
Tensor::ones(Shape shape)
{
    return full(std::move(shape), 1.0F);
}

Tensor
Tensor::full(Shape shape, float value)
{
    Tensor t(std::move(shape));
    t.fill(value);
    return t;
}

Tensor
Tensor::eye(int64_t n) // lrd-lint: allow(dead-symbol) test fixture: Tensor.EyeIsIdentity, ModeProduct.IdentityIsNoop
{
    require(n > 0, "Tensor::eye: n must be positive");
    Tensor t({n, n});
    for (int64_t i = 0; i < n; ++i)
        t(i, i) = 1.0F;
    return t;
}

Tensor
Tensor::randn(Shape shape, Rng &rng, float stddev)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = static_cast<float>(rng.normal(0.0, stddev));
    return t;
}

int64_t
Tensor::dim(int64_t i) const
{
    require(i >= 0 && i < rank(), "Tensor::dim: mode ", i,
            " out of range for rank ", rank());
    return shape_[static_cast<size_t>(i)];
}

int64_t
Tensor::offsetOf(const std::vector<int64_t> &index) const
{
    require(static_cast<int64_t>(index.size()) == rank(),
            "Tensor::offsetOf: index rank ", index.size(), " != tensor rank ",
            rank());
    int64_t off = 0;
    for (size_t i = 0; i < index.size(); ++i) {
        require(index[i] >= 0 && index[i] < shape_[i],
                "Tensor::offsetOf: index ", index[i],
                " out of bounds for mode ", i, " extent ", shape_[i]);
        off = off * shape_[i] + index[i];
    }
    return off;
}

float &
Tensor::at(const std::vector<int64_t> &index)
{
    return data_[static_cast<size_t>(offsetOf(index))];
}

float
Tensor::at(const std::vector<int64_t> &index) const
{
    return data_[static_cast<size_t>(offsetOf(index))];
}

float &
Tensor::operator()(int64_t i, int64_t j)
{
    return data_[static_cast<size_t>(i * shape_[1] + j)];
}

float
Tensor::operator()(int64_t i, int64_t j) const
{
    return data_[static_cast<size_t>(i * shape_[1] + j)];
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (float v : data_)
        s += v;
    return s;
}

double
Tensor::norm() const
{
    double s = 0.0;
    for (float v : data_)
        s += static_cast<double>(v) * v;
    return std::sqrt(s);
}

std::string
Tensor::describe() const
{
    return strCat("Tensor", shape_, " (", size(), " elems)");
}

} // namespace lrd
