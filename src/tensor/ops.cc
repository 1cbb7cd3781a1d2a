#include "ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/simd/pack.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"

namespace lrd {

namespace {

/** Cached handles for the GEMM counters (one registry lookup ever).
 *  A call that runs the dispatched micro kernel counts in
 *  callsPerLevel[level], one that takes a skinny fallback in
 *  skinnyCalls, so `lrdtool stats` can break kernel time down by the
 *  code that ran; `gemm.calls` is their sum. */
struct GemmCounters
{
    Counter *calls;
    Counter *macs;
    Counter *packedBytesA;
    Counter *packedBytesB;
    Counter *skinnyCalls;
    Counter *callsPerLevel[4];

    void noteCall(int64_t macCount, bool blocked)
    {
        calls->inc();
        macs->add(macCount);
        // Resolved on every call, so a bad LRD_SIMD fails at the first
        // GEMM whichever path it takes.
        const simd::Level level = simd::activeLevel();
        (blocked ? callsPerLevel[static_cast<int>(level)] : skinnyCalls)
            ->inc();
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
                       reg.counter("gemm.calls.skinny"),
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
 * dimension is split into KC-deep slabs whose B panel is packed once,
 * then MC-row blocks of A are packed and multiplied by an MR x NR
 * register-tile micro-kernel. Packing and tile geometry live in
 * tensor/simd/pack.h; the inner kernel is the runtime-dispatched entry
 * from tensor/simd/simd.h (scalar always available, AVX2/AVX-512/NEON
 * when the CPU supports them, pinnable with LRD_SIMD).
 *
 * A call runs on its caller's thread: the item loops that call it are
 * the parallel regions (docs/ARCHITECTURE.md, "Threading model").
 * Every C element is the k-ordered sum of its tile, slabs are visited
 * in a fixed order, so for a fixed LRD_SIMD level the result depends
 * on the shape alone. There is deliberately NO zero-skip (the old
 * kernels dropped `0 * NaN` contributions); padded pack lanes only
 * ever feed accumulator entries that are discarded.
 */

using simd::kKc;
using simd::kMc;
using simd::kMr;
using simd::kNc;
using simd::kNr;

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
    const int64_t kcMax = std::min(kKc, k);
    const int64_t ncPadMax = std::min((n + kNr - 1) / kNr * kNr, kNc);
    // One slab's B pack and one A block, sized to the deepest slab this
    // call packs and never cleared: the pack routines write every lane,
    // padding included.
    thread_local std::vector<float> bpack;
    thread_local std::vector<float> apack;
    // lrd-lint: allow(hot-path-alloc) thread_local scratch: grows to the largest slab a thread packs, reused after
    bpack.resize(static_cast<size_t>(kcMax * ncPadMax));
    // lrd-lint: allow(hot-path-alloc) thread_local scratch: grows to the deepest A block a thread packs, reused after
    apack.resize(static_cast<size_t>(kMc * kcMax));

    for (int64_t jc = 0; jc < n; jc += kNc) {
        const int64_t nc = std::min(kNc, n - jc);
        for (int64_t pc = 0; pc < k; pc += kKc) {
            const int64_t kc = std::min(kKc, k - pc);
            const bool addInto = accumulate || pc > 0;
            simd::packBPanels(b, ldb, transB, pc, jc, kc, nc, bpack.data());
            gemmCounters().packedBytesB->add(
                (nc + kNr - 1) / kNr * kNr * kc
                * static_cast<int64_t>(sizeof(float)));
            for (int64_t ic = 0; ic < m; ic += kMc) {
                const int64_t mc = std::min(kMc, m - ic);
                simd::packAPanels(a, lda, transA, ic, pc, mc, kc,
                                  apack.data());
                gemmCounters().packedBytesA->add(
                    (mc + kMr - 1) / kMr * kMr * kc
                    * static_cast<int64_t>(sizeof(float)));
                for (int64_t jr = 0; jr < nc; jr += kNr) {
                    const float *bp = bpack.data() + (jr / kNr) * kNr * kc;
                    const int64_t nr = std::min(kNr, nc - jr);
                    for (int64_t ir = 0; ir < mc; ir += kMr) {
                        const float *ap =
                            apack.data() + (ir / kMr) * kMr * kc;
                        kernel(ap, bp, kc, c + (ic + ir) * n + jc + jr, n,
                               std::min(kMr, mc - ir), nr, addInto);
                    }
                }
            }
        }
    }
}

/** Whether the packed blocked path pays for itself for this shape. */
bool
useBlockedGemm(int64_t m, int64_t k, int64_t n)
{
    return m >= 2 * kMr && n >= kNr / 2 && k >= 8;
}

/*
 * Skinny transposed-B kernel: C(i, j) = dot(A row i, B row j) for the
 * shapes the blocked path declines, 16 outputs (columns of C) per step.
 *
 * Every output sums in one order that depends on k alone: lane p mod
 * 16 accumulates a(i, p) * b(j, p) in ascending p, then the lanes fold
 * as lane[l] + lane[l + 8], lane[l] + lane[l + 4] and
 * (lane[0] + lane[2]) + (lane[1] + lane[3]). GCC and Clang contract
 * each multiply-add to FMA exactly when this file's -march has FMA, so
 * the result follows the build's flags and not LRD_SIMD. m, n and an
 * output's place in its group never change a bit.
 *
 * The vectors are GCC/Clang vector extensions that never cross a
 * function boundary: passing a 64-byte vector by value changes ABI
 * between -march levels (-Wpsabi).
 */
using Vec16 = float __attribute__((vector_size(64)));
using Bits16 = int32_t __attribute__((vector_size(64)));

// GCC keeps an array of accumulators in registers only when the loops
// indexing it are fully unrolled, which its size heuristics decline
// here. Clang gets no hint: it warns (an error under -Werror) when it
// cannot honour one.
#if defined(__clang__)
#define LRD_SKINNY_UNROLL
#else
#define LRD_SKINNY_UNROLL _Pragma("GCC unroll 16")
#endif

constexpr int kSkinnyGroup = 16;

/**
 * k >= 16: out[jj] = dot(x, B row jj) for W consecutive rows of B at b.
 * One accumulator per output holds its 16 lanes; the fold then runs
 * across outputs by shuffling pairs of accumulators. W < 16 serves
 * partial groups without touching rows past the W-th.
 */
template <int W>
void
foldedDots(const float *x, const float *b, int64_t k, float *out)
{
    static_assert(W >= 1 && W <= kSkinnyGroup && (W & (W - 1)) == 0);
    Vec16 acc[W] = {};
    int64_t p = 0;
    for (; p + 16 <= k; p += 16) {
        Vec16 xv;
        std::memcpy(&xv, x + p, sizeof xv);
LRD_SKINNY_UNROLL
        for (int jj = 0; jj < W; ++jj) {
            Vec16 y;
            std::memcpy(&y, b + jj * k + p, sizeof y);
            acc[jj] += xv * y;
        }
    }
    if (p < k) {
        // Tail lanes l < k - p take one more multiply-add; the others
        // keep their bits (adding +0 would turn a -0 lane into +0).
        alignas(64) float xt[16] = {};
        Bits16 tail = {};
        for (int64_t l = 0; p + l < k; ++l) {
            xt[l] = x[p + l];
            tail[l] = -1;
        }
        Vec16 xv;
        std::memcpy(&xv, xt, sizeof xv);
LRD_SKINNY_UNROLL
        for (int jj = 0; jj < W; ++jj) {
            alignas(64) float yt[16] = {};
            for (int64_t l = 0; p + l < k; ++l)
                yt[l] = b[jj * k + p + l];
            Vec16 y;
            std::memcpy(&y, yt, sizeof y);
            const Vec16 next = acc[jj] + xv * y;
            acc[jj] = (Vec16)(((Bits16)next & tail)
                              | ((Bits16)acc[jj] & ~tail));
        }
    }
    // f8[q] holds outputs 2q and 2q+1 (8 lanes each), f4[t] outputs
    // 4t..4t+3 (4 lanes each), f2[u] outputs 8u..8u+7 as (lane0 +
    // lane2, lane1 + lane3) pairs. Below W outputs a slot repeats the
    // last real one; its lanes are never stored.
    constexpr int n8 = (W + 1) / 2, n4 = (W + 3) / 4, n2 = (W + 7) / 8;
    Vec16 f8[n8];
LRD_SKINNY_UNROLL
    for (int q = 0; q < n8; ++q) {
        const int hi = 2 * q + 1 < W ? 2 * q + 1 : W - 1;
        f8[q] = __builtin_shufflevector(acc[2 * q], acc[hi], 0, 1, 2, 3, 4,
                                        5, 6, 7, 16, 17, 18, 19, 20, 21, 22,
                                        23)
                + __builtin_shufflevector(acc[2 * q], acc[hi], 8, 9, 10, 11,
                                          12, 13, 14, 15, 24, 25, 26, 27,
                                          28, 29, 30, 31);
    }
    Vec16 f4[n4];
LRD_SKINNY_UNROLL
    for (int t = 0; t < n4; ++t) {
        const int hi = 2 * t + 1 < n8 ? 2 * t + 1 : n8 - 1;
        f4[t] = __builtin_shufflevector(f8[2 * t], f8[hi], 0, 1, 2, 3, 8, 9,
                                        10, 11, 16, 17, 18, 19, 24, 25, 26,
                                        27)
                + __builtin_shufflevector(f8[2 * t], f8[hi], 4, 5, 6, 7, 12,
                                          13, 14, 15, 20, 21, 22, 23, 28,
                                          29, 30, 31);
    }
    Vec16 f2[n2];
LRD_SKINNY_UNROLL
    for (int u = 0; u < n2; ++u) {
        const int hi = 2 * u + 1 < n4 ? 2 * u + 1 : n4 - 1;
        f2[u] = __builtin_shufflevector(f4[2 * u], f4[hi], 0, 1, 4, 5, 8, 9,
                                        12, 13, 16, 17, 20, 21, 24, 25, 28,
                                        29)
                + __builtin_shufflevector(f4[2 * u], f4[hi], 2, 3, 6, 7, 10,
                                          11, 14, 15, 18, 19, 22, 23, 26,
                                          27, 30, 31);
    }
    const Vec16 sum =
        __builtin_shufflevector(f2[0], f2[n2 - 1], 0, 2, 4, 6, 8, 10, 12,
                                14, 16, 18, 20, 22, 24, 26, 28, 30)
        + __builtin_shufflevector(f2[0], f2[n2 - 1], 1, 3, 5, 7, 9, 11, 13,
                                  15, 17, 19, 21, 23, 25, 27, 29, 31);
    std::memcpy(out, &sum, W * sizeof(float));
}

/**
 * k < 16: out[i][jj] = dot(A row i, B row jj) for nj <= 16 rows of B
 * at b and all m rows of A. One accumulator per lane holds all 16
 * outputs, so the fold is plain vector adds, and the transposed B block
 * is read once for every row of A.
 */
void
laneMajorDots(const float *a, int64_t m, const float *b, int64_t k,
              int nj, float *out)
{
    alignas(64) float bt[kSkinnyGroup][kSkinnyGroup];
    for (int64_t l = 0; l < k; ++l)
        for (int jj = 0; jj < kSkinnyGroup; ++jj)
            bt[l][jj] = jj < nj ? b[jj * k + l] : 0.0F;
    for (int64_t i = 0; i < m; ++i) {
        const float *x = a + i * k;
        Vec16 lane[16] = {};
        for (int l = 0; l < 16; ++l) {
            if (l < k) {
                Vec16 y;
                std::memcpy(&y, bt[l], sizeof y);
                lane[l] += x[l] * y;
            }
        }
        for (int l = 0; l < 8; ++l)
            lane[l] = lane[l] + lane[l + 8];
        for (int l = 0; l < 4; ++l)
            lane[l] = lane[l] + lane[l + 4];
        const Vec16 sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
        std::memcpy(out + i * kSkinnyGroup, &sum, sizeof sum);
    }
}

/** C (m x n) = A (m x k) * B^T, B stored (n x k), one 16-column group
 *  of C at a time. */
void
skinnyTransB(const float *a, const float *b, float *c, int64_t m,
             int64_t k, int64_t n, bool accumulate)
{
    // The group's dot products, row-major: dots[i][jj] (k < 16 fills
    // every row of A at once, k >= 16 one row at a time).
    thread_local std::vector<float> dots;
    // lrd-lint: allow(hot-path-alloc) thread_local scratch: grows to the largest m a thread sees, reused after
    dots.resize(static_cast<size_t>(m * kSkinnyGroup));
    for (int64_t j0 = 0; j0 < n; j0 += kSkinnyGroup) {
        const int nj =
            static_cast<int>(std::min<int64_t>(kSkinnyGroup, n - j0));
        const float *bg = b + j0 * k;
        if (k < kSkinnyGroup) {
            laneMajorDots(a, m, bg, k, nj, dots.data());
        } else {
            for (int64_t i = 0; i < m; ++i) {
                const float *x = a + i * k;
                float *out = dots.data() + i * kSkinnyGroup;
                if (nj == kSkinnyGroup) {
                    foldedDots<16>(x, bg, k, out);
                    continue;
                }
                // A partial group in power-of-two pieces.
                int done = 0;
                if ((nj & 8) != 0) {
                    foldedDots<8>(x, bg + done * k, k, out + done);
                    done += 8;
                }
                if ((nj & 4) != 0) {
                    foldedDots<4>(x, bg + done * k, k, out + done);
                    done += 4;
                }
                if ((nj & 2) != 0) {
                    foldedDots<2>(x, bg + done * k, k, out + done);
                    done += 2;
                }
                if ((nj & 1) != 0)
                    foldedDots<1>(x, bg + done * k, k, out + done);
            }
        }
        for (int64_t i = 0; i < m; ++i) {
            float *crow = c + i * n + j0;
            const float *d = dots.data() + i * kSkinnyGroup;
            for (int jj = 0; jj < nj; ++jj)
                crow[jj] = accumulate ? crow[jj] + d[jj] : d[jj];
        }
    }
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
    const bool blocked = useBlockedGemm(m, k, n);
    gemmCounters().noteCall(m * k * n, blocked);
    if (blocked) {
        blockedGemm(a, k, false, b, n, false, c, m, k, n, accumulate);
        return;
    }
    // Skinny fallback: i-k-j loop order (unit-stride b and c rows).
    for (int64_t i = 0; i < m; ++i) {
        float *crow = c + i * n;
        if (!accumulate) {
            for (int64_t j = 0; j < n; ++j)
                crow[j] = 0.0F;
        }
        const float *arow = a + i * k;
        for (int64_t p = 0; p < k; ++p) {
            const float av = arow[p];
            const float *brow = b + p * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

void
gemmTransB(const float *a, const float *b, float *c, int64_t m, int64_t k,
           int64_t n, bool accumulate)
{
    LRD_TRACE_SPAN("gemmTransB");
    const bool blocked = useBlockedGemm(m, k, n);
    gemmCounters().noteCall(m * k * n, blocked);
    if (blocked) {
        blockedGemm(a, k, false, b, k, true, c, m, k, n, accumulate);
        return;
    }
    skinnyTransB(a, b, c, m, k, n, accumulate);
}

void
gemmTransA(const float *a, const float *b, float *c, int64_t m, int64_t k,
           int64_t n, bool accumulate)
{
    LRD_TRACE_SPAN("gemmTransA");
    // c (k x n) = sum_i a[i][:]^T outer b[i][:]: logical A is the
    // k x m transposed view of the stored (m x k) a.
    const bool blocked = useBlockedGemm(k, m, n);
    gemmCounters().noteCall(m * k * n, blocked);
    if (blocked) {
        blockedGemm(a, k, true, b, n, false, c, k, m, n, accumulate);
        return;
    }
    // Skinny fallback: rows of c accumulate in ascending i.
    if (!accumulate) {
        for (int64_t p = 0; p < k; ++p)
            for (int64_t j = 0; j < n; ++j)
                c[p * n + j] = 0.0F;
    }
    for (int64_t i = 0; i < m; ++i) {
        const float *arow = a + i * k;
        const float *brow = b + i * n;
        for (int64_t p = 0; p < k; ++p) {
            const float av = arow[p];
            float *crow = c + p * n;
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
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
