#include "ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/simd/pack.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"

namespace lrd {

namespace {

/** Cached handles for the GEMM counters (one registry lookup ever).
 *  callsPerLevel attributes calls to the dispatched ISA so `lrdtool
 *  stats` can break kernel time down by level. */
struct GemmCounters
{
    Counter *calls;
    Counter *macs;
    Counter *packedBytesA;
    Counter *packedBytesB;
    Counter *callsPerLevel[4];

    void noteCall(int64_t macCount)
    {
        calls->inc();
        macs->add(macCount);
        callsPerLevel[static_cast<int>(simd::activeLevel())]->inc();
    }
};

GemmCounters &
gemmCounters()
{
    static GemmCounters gc = [] {
        MetricsRegistry &reg = MetricsRegistry::instance();
        GemmCounters c{reg.counter("gemm.calls"),
                       reg.counter("gemm.macs"),
                       reg.counter("gemm.packedBytesA"),
                       reg.counter("gemm.packedBytesB"),
                       {}};
        for (simd::Level l :
             {simd::Level::Scalar, simd::Level::Neon, simd::Level::Avx2,
              simd::Level::Avx512})
            c.callsPerLevel[static_cast<int>(l)] = reg.counter(
                strCat("gemm.calls.", simd::levelName(l)));
        return c;
    }();
    return gc;
}

void
checkSameShape(const Tensor &a, const Tensor &b, const char *what)
{
    require(a.shape() == b.shape(), what, ": shape mismatch ", a.shape(),
            " vs ", b.shape());
}

void
checkMatrix(const Tensor &a, const char *what)
{
    require(a.rank() == 2, what, ": expected rank-2 tensor, got ", a.shape());
}

/*
 * Blocked GEMM with packing, shared by all three transpose variants.
 *
 * The driver follows the classic GotoBLAS/BLIS loop structure: the k
 * dimension is split into KC-deep slabs whose B panel is packed once
 * (by the posting thread), then row panels of A are packed and
 * multiplied by an MR x NR register-tile micro-kernel. Packing and
 * tile geometry live in tensor/simd/pack.h; the inner kernel is the
 * runtime-dispatched entry from tensor/simd/simd.h (scalar always
 * available, AVX2/AVX-512/NEON when the CPU supports them, pinnable
 * with LRD_SIMD).
 *
 * Determinism: every C element is produced by exactly one fixed row
 * chunk, k slabs are visited in a fixed serial order, and the chunk
 * partitioning depends only on the shape — so for a fixed LRD_SIMD
 * level results are bitwise identical at any thread count. There is
 * deliberately NO zero-skip (the old kernels dropped `0 * NaN`
 * contributions); padded pack lanes only ever feed accumulator
 * entries that are discarded.
 */

using simd::kKc;
using simd::kMr;
using simd::kNc;
using simd::kNr;
using simd::kRowChunk;

/**
 * Blocked driver over raw storage: logical A is m x k with A(i, p) =
 * a[p * lda + i] when transA (else a[i * lda + p]), logical B is
 * k x n with B(p, j) = b[j * ldb + p] when transB (else b[p*ldb+j]).
 */
void
blockedGemm(const float *a, int64_t lda, bool transA, const float *b,
            int64_t ldb, bool transB, float *c, int64_t m, int64_t k,
            int64_t n, bool accumulate)
{
    const simd::MicroKernelFn kernel = simd::activeKernels().microKernel;
    const int64_t ncPadMax =
        std::min((n + kNr - 1) / kNr * kNr, kNc);
    std::vector<float> bpack(static_cast<size_t>(kKc * ncPadMax));
    const int64_t rowChunks = (m + kRowChunk - 1) / kRowChunk;

    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min(kKc, k - pc);
            // B pack is shared read-only by all row chunks.
            simd::packBPanels(b, ldb, transB, pc, jc, kc, nc, bpack.data());
            gemmCounters().packedBytesB->add(
                (nc + kNr - 1) / kNr * kNr * kc
                * static_cast<int64_t>(sizeof(float)));
            const bool addInto = accumulate || pc > 0;

            parallelFor(0, rowChunks, 1, [&](int64_t c0, int64_t c1) {
                thread_local std::vector<float> apack;
                // lrd-lint: allow(hot-path-alloc) thread_local scratch: sized on each thread's first chunk, reused after
                apack.resize(static_cast<size_t>(kRowChunk * kc));
                for (int64_t rc = c0; rc < c1; ++rc) {
                    const int64_t ic = rc * kRowChunk;
                    const int64_t mc = std::min(kRowChunk, m - ic);
                    simd::packAPanels(a, lda, transA, ic, pc, mc, kc,
                                      apack.data());
                    gemmCounters().packedBytesA->add(
                        (mc + kMr - 1) / kMr * kMr * kc
                        * static_cast<int64_t>(sizeof(float)));
                    for (int64_t jr = 0; jr < nc; jr += kNr) {
                        const float *bp =
                            bpack.data() + (jr / kNr) * kNr * kc;
                        const int64_t nr = std::min(kNr, nc - jr);
                        for (int64_t ir = 0; ir < mc; ir += kMr) {
                            const float *ap =
                                apack.data() + (ir / kMr) * kMr * kc;
                            kernel(ap, bp, kc,
                                   c + (ic + ir) * n + jc + jr, n,
                                   std::min(kMr, mc - ir), nr,
                                   addInto);
                        }
                    }
                }
            });
        }
    }
}

/** Whether the packed blocked path pays for itself for this shape. */
bool
useBlockedGemm(int64_t m, int64_t k, int64_t n)
{
    return m >= 2 * kMr && n >= kNr / 2 && k >= 8;
}

/**
 * Dot product with 16 striped lane accumulators reduced in a fixed
 * tree: vectorizes without -ffast-math and sums in a k-only order.
 */
float
laneDot(const float *x, const float *y, int64_t k)
{
    float lane[16] = {};
    int64_t p = 0;
    for (; p + 16 <= k; p += 16)
        for (int64_t l = 0; l < 16; ++l)
            lane[l] += x[p + l] * y[p + l];
    for (int64_t l = 0; p + l < k; ++l)
        lane[l] += x[p + l] * y[p + l];
    for (int64_t l = 0; l < 8; ++l)
        lane[l] += lane[l + 8];
    for (int64_t l = 0; l < 4; ++l)
        lane[l] += lane[l + 4];
    return ((lane[0] + lane[2]) + (lane[1] + lane[3]));
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "add");
    Tensor c = a;
    float *cd = c.data();
    const float *bd = b.data();
    for (int64_t i = 0; i < c.size(); ++i)
        cd[i] += bd[i];
    return c;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "sub");
    Tensor c = a;
    float *cd = c.data();
    const float *bd = b.data();
    for (int64_t i = 0; i < c.size(); ++i)
        cd[i] -= bd[i];
    return c;
}

Tensor
hadamard(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "hadamard");
    Tensor c = a;
    float *cd = c.data();
    const float *bd = b.data();
    for (int64_t i = 0; i < c.size(); ++i)
        cd[i] *= bd[i];
    return c;
}

Tensor
scale(const Tensor &a, float s)
{
    Tensor c = a;
    for (float *p = c.data(), *e = p + c.size(); p != e; ++p)
        *p *= s;
    return c;
}

void
axpy(Tensor &a, float s, const Tensor &b)
{
    checkSameShape(a, b, "axpy");
    float *ad = a.data();
    const float *bd = b.data();
    for (int64_t i = 0; i < a.size(); ++i)
        ad[i] += s * bd[i];
}

void
gemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
     int64_t n, bool accumulate)
{
    LRD_TRACE_SPAN("gemm");
    gemmCounters().noteCall(m * k * n);
    if (useBlockedGemm(m, k, n)) {
        blockedGemm(a, k, false, b, n, false, c, m, k, n, accumulate);
        return;
    }
    // Skinny fallback: i-k-j loop order (unit-stride b and c rows),
    // column chunks so even single-row products parallelize.
    parallelFor(0, n, 512, [&](int64_t jlo, int64_t jhi) {
        for (int64_t i = 0; i < m; ++i) {
            float *crow = c + i * n;
            if (!accumulate) {
                for (int64_t j = jlo; j < jhi; ++j)
                    crow[j] = 0.0F;
            }
            const float *arow = a + i * k;
            for (int64_t p = 0; p < k; ++p) {
                const float av = arow[p];
                const float *brow = b + p * n;
                for (int64_t j = jlo; j < jhi; ++j)
                    crow[j] += av * brow[j];
            }
        }
    });
}

void
gemmTransB(const float *a, const float *b, float *c, int64_t m, int64_t k,
           int64_t n, bool accumulate)
{
    LRD_TRACE_SPAN("gemmTransB");
    gemmCounters().noteCall(m * k * n);
    if (useBlockedGemm(m, k, n)) {
        blockedGemm(a, k, false, b, k, true, c, m, k, n, accumulate);
        return;
    }
    // Skinny fallback: lane-accumulator dot products over the
    // contiguous rows of a and b, parallel over output columns.
    parallelFor(0, n, 128, [&](int64_t jlo, int64_t jhi) {
        for (int64_t i = 0; i < m; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            for (int64_t j = jlo; j < jhi; ++j) {
                const float acc = laneDot(arow, b + j * k, k);
                crow[j] = accumulate ? crow[j] + acc : acc;
            }
        }
    });
}

void
gemmTransA(const float *a, const float *b, float *c, int64_t m, int64_t k,
           int64_t n, bool accumulate)
{
    LRD_TRACE_SPAN("gemmTransA");
    gemmCounters().noteCall(m * k * n);
    // c (k x n) = sum_i a[i][:]^T outer b[i][:]: logical A is the
    // k x m transposed view of the stored (m x k) a.
    if (useBlockedGemm(k, m, n)) {
        blockedGemm(a, k, true, b, n, false, c, k, m, n, accumulate);
        return;
    }
    // Skinny fallback: parallel over the rows of c, so every output
    // element is owned by exactly one chunk.
    parallelFor(0, k, 64, [&](int64_t plo, int64_t phi) {
        if (!accumulate) {
            for (int64_t p = plo; p < phi; ++p)
                for (int64_t j = 0; j < n; ++j)
                    c[p * n + j] = 0.0F;
        }
        for (int64_t i = 0; i < m; ++i) {
            const float *arow = a + i * k;
            const float *brow = b + i * n;
            for (int64_t p = plo; p < phi; ++p) {
                const float av = arow[p];
                float *crow = c + p * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    });
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    checkMatrix(a, "matmul");
    checkMatrix(b, "matmul");
    require(a.dim(1) == b.dim(0), "matmul: inner dims differ: ", a.shape(),
            " x ", b.shape());
    Tensor c({a.dim(0), b.dim(1)});
    gemm(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
    return c;
}

Tensor
matmulTransB(const Tensor &a, const Tensor &b)
{
    checkMatrix(a, "matmulTransB");
    checkMatrix(b, "matmulTransB");
    require(a.dim(1) == b.dim(1), "matmulTransB: inner dims differ: ",
            a.shape(), " x ", b.shape(), "^T");
    Tensor c({a.dim(0), b.dim(0)});
    gemmTransB(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(0));
    return c;
}

Tensor
matmulTransA(const Tensor &a, const Tensor &b)
{
    checkMatrix(a, "matmulTransA");
    checkMatrix(b, "matmulTransA");
    require(a.dim(0) == b.dim(0), "matmulTransA: inner dims differ: ",
            a.shape(), "^T x ", b.shape());
    Tensor c({a.dim(1), b.dim(1)});
    gemmTransA(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
    return c;
}

Tensor
transpose2d(const Tensor &a)
{
    checkMatrix(a, "transpose2d");
    const int64_t m = a.dim(0), n = a.dim(1);
    Tensor t({n, m});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j)
            t(j, i) = a(i, j);
    return t;
}

Tensor
matvec(const Tensor &a, const Tensor &x)
{
    checkMatrix(a, "matvec");
    require(x.rank() == 1 && x.dim(0) == a.dim(1), "matvec: vector shape ",
            x.shape(), " incompatible with matrix ", a.shape());
    Tensor y({a.dim(0)});
    const int64_t m = a.dim(0), n = a.dim(1);
    const float *ad = a.data();
    const float *xd = x.data();
    float *yd = y.data();
    parallelFor(0, m, 64, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            yd[i] = laneDot(ad + i * n, xd, n);
    });
    return y;
}

Tensor
relu(const Tensor &a)
{
    Tensor c = a;
    for (float *p = c.data(), *e = p + c.size(); p != e; ++p)
        *p = *p > 0.0F ? *p : 0.0F;
    return c;
}

Tensor
gelu(const Tensor &a)
{
    Tensor c = a;
    constexpr float kSqrt2OverPi = 0.7978845608028654F;
    for (float *p = c.data(), *e = p + c.size(); p != e; ++p) {
        const float x = *p;
        const float inner = kSqrt2OverPi * (x + 0.044715F * x * x * x);
        *p = 0.5F * x * (1.0F + std::tanh(inner));
    }
    return c;
}

Tensor
silu(const Tensor &a)
{
    Tensor c = a;
    for (float *p = c.data(), *e = p + c.size(); p != e; ++p) {
        const float x = *p;
        *p = x / (1.0F + std::exp(-x));
    }
    return c;
}

Tensor
softmaxLastDim(const Tensor &a)
{
    require(a.rank() >= 1, "softmaxLastDim: rank must be >= 1");
    Tensor c = a;
    const int64_t cols = a.dim(a.rank() - 1);
    const int64_t rows = a.size() / cols;
    for (int64_t r = 0; r < rows; ++r) {
        float *row = c.data() + r * cols;
        float mx = row[0];
        for (int64_t j = 1; j < cols; ++j)
            mx = std::max(mx, row[j]);
        float sum = 0.0F;
        for (int64_t j = 0; j < cols; ++j) {
            row[j] = std::exp(row[j] - mx);
            sum += row[j];
        }
        const float inv = 1.0F / sum;
        for (int64_t j = 0; j < cols; ++j)
            row[j] *= inv;
    }
    return c;
}

Tensor
logSoftmaxLastDim(const Tensor &a)
{
    require(a.rank() >= 1, "logSoftmaxLastDim: rank must be >= 1");
    Tensor c = a;
    const int64_t cols = a.dim(a.rank() - 1);
    const int64_t rows = a.size() / cols;
    for (int64_t r = 0; r < rows; ++r) {
        float *row = c.data() + r * cols;
        float mx = row[0];
        for (int64_t j = 1; j < cols; ++j)
            mx = std::max(mx, row[j]);
        double sum = 0.0;
        for (int64_t j = 0; j < cols; ++j)
            sum += std::exp(static_cast<double>(row[j] - mx));
        const float lse = mx + static_cast<float>(std::log(sum));
        for (int64_t j = 0; j < cols; ++j)
            row[j] -= lse;
    }
    return c;
}

double
relativeError(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "relativeError");
    double num = 0.0, den = 0.0;
    const float *ad = a.data();
    const float *bd = b.data();
    for (int64_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(ad[i]) - bd[i];
        num += d * d;
        den += static_cast<double>(ad[i]) * ad[i];
    }
    if (den == 0.0)
        return num == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    return std::sqrt(num / den);
}

double
dot(const Tensor &a, const Tensor &b)
{
    checkSameShape(a, b, "dot");
    double s = 0.0;
    const float *ad = a.data();
    const float *bd = b.data();
    for (int64_t i = 0; i < a.size(); ++i)
        s += static_cast<double>(ad[i]) * bd[i];
    return s;
}

} // namespace lrd
