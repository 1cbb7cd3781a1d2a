#include "unfold.h"

#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

namespace {

/**
 * Column strides for the Kolda-Bader unfolding: column index of a
 * multi-index is sum over modes m != mode of i_m * stride_m, where
 * lower modes vary fastest.
 */
std::vector<int64_t>
columnStrides(const Shape &shape, int64_t mode)
{
    std::vector<int64_t> strides(shape.size(), 0);
    int64_t acc = 1;
    for (size_t m = 0; m < shape.size(); ++m) {
        if (static_cast<int64_t>(m) == mode)
            continue;
        strides[m] = acc;
        acc *= shape[m];
    }
    return strides;
}

} // namespace

Tensor
unfold(const Tensor &t, int64_t mode)
{
    require(t.rank() >= 1, "unfold: tensor must have rank >= 1");
    require(mode >= 0 && mode < t.rank(), "unfold: mode ", mode,
            " out of range for rank ", t.rank());
    const Shape &shape = t.shape();
    const int64_t rows = shape[static_cast<size_t>(mode)];
    const int64_t cols = t.size() / rows;
    Tensor out({rows, cols});

    const auto cstrides = columnStrides(shape, mode);
    std::vector<int64_t> idx(shape.size(), 0);
    const float *src = t.data();
    float *dst = out.data();
    for (int64_t flat = 0; flat < t.size(); ++flat) {
        int64_t col = 0;
        for (size_t m = 0; m < idx.size(); ++m)
            col += idx[m] * cstrides[m];
        dst[idx[static_cast<size_t>(mode)] * cols + col] = src[flat];
        // Advance row-major multi-index (last mode fastest).
        for (int64_t m = t.rank() - 1; m >= 0; --m) {
            if (++idx[static_cast<size_t>(m)] < shape[static_cast<size_t>(m)])
                break;
            idx[static_cast<size_t>(m)] = 0;
        }
    }
    return out;
}

Tensor
fold(const Tensor &m, int64_t mode, const Shape &fullShape)
{
    require(m.rank() == 2, "fold: input must be a matrix");
    require(mode >= 0 && mode < static_cast<int64_t>(fullShape.size()),
            "fold: mode ", mode, " out of range for shape ", fullShape);
    require(fullShape[static_cast<size_t>(mode)] == m.dim(0),
            "fold: leading extent ", m.dim(0), " != target mode extent ",
            fullShape[static_cast<size_t>(mode)]);
    require(numElements(fullShape) == m.size(),
            "fold: element count mismatch for ", fullShape);

    Tensor out(fullShape);
    const auto cstrides = columnStrides(fullShape, mode);
    std::vector<int64_t> idx(fullShape.size(), 0);
    const float *src = m.data();
    float *dst = out.data();
    const int64_t cols = m.dim(1);
    for (int64_t flat = 0; flat < out.size(); ++flat) {
        int64_t col = 0;
        for (size_t k = 0; k < idx.size(); ++k)
            col += idx[k] * cstrides[k];
        dst[flat] = src[idx[static_cast<size_t>(mode)] * cols + col];
        for (int64_t k = static_cast<int64_t>(fullShape.size()) - 1; k >= 0;
             --k) {
            if (++idx[static_cast<size_t>(k)]
                < fullShape[static_cast<size_t>(k)])
                break;
            idx[static_cast<size_t>(k)] = 0;
        }
    }
    return out;
}

Tensor
modeProduct(const Tensor &t, const Tensor &m, int64_t mode)
{
    require(m.rank() == 2, "modeProduct: factor must be a matrix");
    require(mode >= 0 && mode < t.rank(), "modeProduct: mode ", mode,
            " out of range for rank ", t.rank());
    require(m.dim(1) == t.dim(mode), "modeProduct: factor ", m.shape(),
            " incompatible with mode ", mode, " of ", t.shape());
    // Y_(mode) = M * T_(mode), then refold with the new extent.
    Tensor unfolded = unfold(t, mode);
    Tensor product = matmul(m, unfolded);
    Shape outShape = t.shape();
    outShape[static_cast<size_t>(mode)] = m.dim(0);
    return fold(product, mode, outShape);
}

} // namespace lrd
