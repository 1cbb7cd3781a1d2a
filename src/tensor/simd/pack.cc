#include "tensor/simd/pack.h"

#include <algorithm>

namespace lrd::simd {

void
packAPanels(const float *a, int64_t lda, bool trans, int64_t i0, int64_t p0,
            int64_t mc, int64_t kc, float *dst)
{
    for (int64_t ir = 0; ir < mc; ir += kMr) {
        const int64_t mr = std::min(kMr, mc - ir);
        if (!trans) {
            for (int64_t p = 0; p < kc; ++p) {
                const float *col = a + (i0 + ir) * lda + (p0 + p);
                for (int64_t i = 0; i < mr; ++i)
                    dst[p * kMr + i] = col[i * lda];
                for (int64_t i = mr; i < kMr; ++i)
                    dst[p * kMr + i] = 0.0F;
            }
        } else {
            // A(i, p) = a[p * lda + i]: each packed column is
            // contiguous in storage.
            for (int64_t p = 0; p < kc; ++p) {
                const float *row = a + (p0 + p) * lda + (i0 + ir);
                for (int64_t i = 0; i < mr; ++i)
                    dst[p * kMr + i] = row[i];
                for (int64_t i = mr; i < kMr; ++i)
                    dst[p * kMr + i] = 0.0F;
            }
        }
        dst += kMr * kc;
    }
}

void
packBPanels(const float *b, int64_t ldb, bool trans, int64_t p0, int64_t j0,
            int64_t kc, int64_t nc, float *dst)
{
    for (int64_t jr = 0; jr < nc; jr += kNr) {
        const int64_t nr = std::min(kNr, nc - jr);
        if (!trans) {
            for (int64_t p = 0; p < kc; ++p) {
                const float *row = b + (p0 + p) * ldb + (j0 + jr);
                for (int64_t j = 0; j < nr; ++j)
                    dst[p * kNr + j] = row[j];
                for (int64_t j = nr; j < kNr; ++j)
                    dst[p * kNr + j] = 0.0F;
            }
        } else {
            // B(p, j) = b[j * ldb + p].
            for (int64_t p = 0; p < kc; ++p) {
                const float *col = b + (j0 + jr) * ldb + (p0 + p);
                for (int64_t j = 0; j < nr; ++j)
                    dst[p * kNr + j] = col[j * ldb];
                for (int64_t j = nr; j < kNr; ++j)
                    dst[p * kNr + j] = 0.0F;
            }
        }
        dst += kNr * kc;
    }
}

} // namespace lrd::simd
