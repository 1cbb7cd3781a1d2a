/**
 * @file
 * Dense linear-algebra kernels implemented from scratch: Householder
 * QR, cyclic-Jacobi symmetric eigendecomposition, full and truncated
 * SVD, and a randomized range-finder SVD used as an ablation.
 *
 * These are the numerical workhorses of Tucker/SVD decomposition
 * (Algorithm 1 in the paper). Matrices are rank-2 Tensors.
 */

#ifndef LRD_LINALG_LINALG_H
#define LRD_LINALG_LINALG_H

#include "tensor/tensor.h"
#include "util/status.h"

namespace lrd {

/** Result of a thin QR decomposition A (m x n) = Q (m x k) R (k x n),
 *  k = min(m, n). */
struct QrResult
{
    Tensor q; ///< Orthonormal columns.
    Tensor r; ///< Upper triangular.
};

/** Thin Householder QR of an arbitrary (m x n) matrix. */
QrResult qrDecompose(const Tensor &a);

/** Result of a symmetric eigendecomposition S = V diag(w) V^T. */
struct EigenResult
{
    std::vector<double> values; ///< Eigenvalues, descending.
    Tensor vectors;             ///< Columns are eigenvectors (n x n).
    Status status;              ///< NonConvergence when sweeps ran out.
    int sweeps = 0;             ///< Jacobi sweeps actually performed.
};

/**
 * Cyclic Jacobi eigendecomposition of a symmetric matrix.
 *
 * When the off-diagonal norm is still above tolerance after maxSweeps,
 * the factors computed so far are returned with a NonConvergence
 * status (site "jacobi") — callers decide whether a best-effort
 * factorization is usable.
 *
 * @param s Symmetric (n x n) matrix; symmetry is enforced by averaging.
 */
EigenResult symmetricEigen(const Tensor &s, int maxSweeps = 60);

/** Result of a (possibly truncated) singular value decomposition
 *  A (m x n) approx= U (m x k) diag(s) V^T (k x n). */
struct SvdResult
{
    Tensor u;                     ///< Left singular vectors (m x k).
    std::vector<double> s;        ///< Singular values, descending.
    Tensor v;                     ///< Right singular vectors (n x k).
    Status status;                ///< Propagated Jacobi convergence.

    /** Reconstruct U diag(s) V^T. */
    Tensor reconstruct() const;
};

/**
 * Full SVD via eigendecomposition of the Gram matrix of the smaller
 * side. Exact up to Jacobi convergence; suitable for the dimensions
 * in this library (<= a few thousand on the small side).
 */
SvdResult svd(const Tensor &a);

/**
 * Rank-k truncated SVD (Eckart-Young optimal k-rank approximation):
 * svdPrefix(svd(a), k).
 * @param k Target rank, 1 <= k <= min(m, n).
 */
SvdResult truncatedSvd(const Tensor &a, int64_t k);

/**
 * The first k singular triplets of a full SVD, status included. svd()
 * never looks at k, so this is bitwise truncatedSvd(a, k) for every k:
 * one full SVD serves every rank.
 * @param k Prefix length, 1 <= k <= full.s.size().
 */
SvdResult svdPrefix(const SvdResult &full, int64_t k);

/**
 * Top-k left singular vectors of A — the `SVD(k, .)` primitive in
 * Algorithm 1 (HOI). Returns an (m x k) matrix with orthonormal
 * columns. When `convergence` is non-null it receives the underlying
 * Jacobi status (first failure wins if the caller reuses one slot).
 */
Tensor leftSingularVectors(const Tensor &a, int64_t k,
                           Status *convergence = nullptr);

/**
 * Randomized truncated SVD (Halko-Martinsson-Tropp range finder with
 * power iterations). Used by the ablation bench comparing exact vs
 * randomized factorization cost/quality.
 *
 * @param oversample Extra columns in the sketch (default 8).
 * @param powerIters Subspace power iterations (default 2).
 */
SvdResult randomizedSvd(const Tensor &a, int64_t k, Rng &rng,
                        int64_t oversample = 8, int powerIters = 2);

/** Orthonormality defect || Q^T Q - I ||_F of a column set. */
double orthonormalityError(const Tensor &q);

/**
 * Random matrix with orthonormal columns (m x k, k <= m), produced by
 * QR of a Gaussian matrix.
 */
Tensor randomOrthonormal(int64_t m, int64_t k, Rng &rng);

} // namespace lrd

#endif // LRD_LINALG_LINALG_H
