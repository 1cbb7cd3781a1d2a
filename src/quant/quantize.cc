#include "quantize.h"

#include <cmath>

#include "util/logging.h"

namespace lrd {

int64_t
QuantizedTensor::storageBytes() const
{
    // Codes are packed at `bits` per weight; scales stored FP16.
    const int64_t codeBits = rows * cols * bits;
    return (codeBits + 7) / 8 + rows * 2;
}

QuantizedTensor
quantizeWeight(const Tensor &w, int bits)
{
    require(w.rank() == 2, "quantizeWeight: weight must be a matrix");
    require(bits >= 2 && bits <= 8, "quantizeWeight: bits ", bits,
            " out of [2, 8]");
    const int64_t rows = w.dim(0), cols = w.dim(1);
    const int32_t qmax = (1 << (bits - 1)) - 1;

    QuantizedTensor out;
    out.bits = bits;
    out.rows = rows;
    out.cols = cols;
    out.q.resize(static_cast<size_t>(rows * cols));
    out.scale.resize(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
        const float *row = w.data() + r * cols;
        float amax = 0.0F;
        for (int64_t c = 0; c < cols; ++c)
            amax = std::max(amax, std::abs(row[c]));
        const float scale = amax > 0.0F
                                ? amax / static_cast<float>(qmax)
                                : 1.0F;
        out.scale[static_cast<size_t>(r)] = scale;
        for (int64_t c = 0; c < cols; ++c) {
            const auto code = static_cast<int32_t>(
                std::lround(row[c] / scale));
            out.q[static_cast<size_t>(r * cols + c)] =
                std::min(qmax, std::max(-qmax - 1, code));
        }
    }
    return out;
}

Tensor
dequantizeWeight(const QuantizedTensor &q)
{
    Tensor w({q.rows, q.cols});
    for (int64_t r = 0; r < q.rows; ++r) {
        const float scale = q.scale[static_cast<size_t>(r)];
        float *row = w.data() + r * q.cols;
        for (int64_t c = 0; c < q.cols; ++c)
            row[c] = static_cast<float>(
                         q.q[static_cast<size_t>(r * q.cols + c)])
                     * scale;
    }
    return w;
}

Tensor
fakeQuantize(const Tensor &w, int bits)
{
    return dequantizeWeight(quantizeWeight(w, bits));
}

void
applyFakeQuantization(TransformerModel &model, int bits)
{
    const ModelConfig &cfg = model.config();
    for (int64_t l = 0; l < cfg.nLayers; ++l) {
        for (WeightKind kind : decomposableKinds(cfg.arch)) {
            Linear &lin = model.linear(l, kind);
            require(!lin.isFactorized(),
                    "applyFakeQuantization: quantizing factorized "
                    "layers is not supported");
            lin.weight().value = fakeQuantize(lin.weight().value, bits);
        }
    }
}

int64_t
quantizedModelBytes(const ModelConfig &cfg, int bits, int bytesPerParam)
{
    int64_t total = cfg.totalParams() * bytesPerParam;
    for (int64_t l = 0; l < cfg.nLayers; ++l) {
        for (WeightKind kind : decomposableKinds(cfg.arch)) {
            const auto shape = cfg.weightShape(kind);
            QuantizedTensor q;
            q.bits = bits;
            q.rows = shape[0];
            q.cols = shape[1];
            total -= shape[0] * shape[1] * bytesPerParam;
            total += q.storageBytes();
        }
    }
    return total;
}

} // namespace lrd
