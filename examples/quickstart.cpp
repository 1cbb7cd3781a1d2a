/**
 * @file
 * Quickstart: rank-pruned Tucker decomposition of a single weight
 * matrix, and swapping a dense Linear layer for its factorized form.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "decomp/tucker.h"
#include "model/linear.h"
#include "tensor/ops.h"
#include "util/rng.h"

using namespace lrd;

int
main()
{
    // A "weight matrix" with decaying spectrum, like trained weights.
    Rng rng(7);
    const int64_t h = 256, w = 128;
    Tensor u = Tensor::randn({h, 16}, rng, 1.0F);
    Tensor v = Tensor::randn({16, w}, rng, 1.0F);
    Tensor weight = add(matmul(u, v), Tensor::randn({h, w}, rng, 0.05F));

    std::printf("dense weight: %lld x %lld = %lld params\n",
                static_cast<long long>(h), static_cast<long long>(w),
                static_cast<long long>(denseParams(h, w)));

    // 1. Decompose at several pruned ranks (paper Section 2.3).
    for (int64_t pr : {1, 4, 16, 64}) {
        Tucker2d d = tucker2dDecompose(weight, pr);
        std::printf(
            "  pr=%-3lld params=%-6lld compression=%6.1fx  rel.err=%.4f\n",
            static_cast<long long>(pr),
            static_cast<long long>(d.paramCount()),
            compressionRatio(h, w, pr),
            relativeError(weight, d.reconstruct()));
    }
    std::printf("break-even rank for %lldx%lld: %lld\n",
                static_cast<long long>(h), static_cast<long long>(w),
                static_cast<long long>(breakEvenRank(h, w)));

    // 2. The same thing at the layer level: a Linear swaps its dense
    //    weight for three chained factor matmuls in place.
    Rng lrng(9);
    Linear layer(static_cast<int64_t>(h), static_cast<int64_t>(w), false,
                 "demo", &lrng);
    layer.weight().value = weight; // install the structured weight
    Tensor x = Tensor::randn({4, w}, lrng);
    Tensor before = layer.forward(x);
    const int64_t denseCount = layer.paramCount();
    if (!layer.factorize(16).ok())
        return 1;
    Tensor after = layer.forward(x);
    std::printf("\nLinear layer factorized at pr=16: params %lld -> %lld, "
                "output rel.err=%.4f\n",
                static_cast<long long>(denseCount),
                static_cast<long long>(layer.paramCount()),
                relativeError(before, after));

    // 3. Full Tucker (order-3) via HOI, Algorithm 1.
    Tensor t3 = Tensor::randn({16, 12, 10}, rng);
    TuckerResult tk = hooi(t3, {4, 4, 4});
    std::printf("\norder-3 HOI Tucker at rank (4,4,4): %lld -> %lld "
                "params, rel.err=%.4f\n",
                static_cast<long long>(t3.size()),
                static_cast<long long>(tk.paramCount()),
                relativeError(t3, tk.reconstruct()));
    return 0;
}
