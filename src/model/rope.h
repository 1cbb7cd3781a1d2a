/**
 * @file
 * Rotary position embedding (RoPE) for the Llama-style attention:
 * immutable cos/sin tables shared by every layer and model of a shape.
 *
 * rope.cc is built with -ffp-contract=off, so each product of the
 * rotation is rounded to float before its add or subtract, in every
 * build and with every compiler. Left to the default, whether GCC
 * fuses the products into FMAs depends on how it vectorizes the loop,
 * which differs between builds and translation units.
 */

#ifndef LRD_MODEL_ROPE_H
#define LRD_MODEL_ROPE_H

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace lrd {

/**
 * cos and sin of p * 10000^(-d / headDim) for even d < headDim and
 * the first positions p, evaluated in double and rounded to float
 * once. A table holds at most 4096 positions and 2^18 (cos, sin)
 * pairs, so no model header, whatever its maxSeq or head dim, sizes
 * one past 2 MiB; apply() evaluates later positions in closed form,
 * with the same expressions.
 */
class RopeTable
{
  public:
    /** The table for a model of this shape: built under a lock on the
     *  first request, then read without one. */
    static const RopeTable &shared(int64_t maxSeq, int64_t headDim);

    /**
     * Rotate the `heads` concatenated head slices of each row of qk,
     * row i at position startPos + i. `inverse` rotates by the negated
     * angle (backward() applies it to gradients).
     */
    void apply(Tensor &qk, int64_t startPos, bool inverse,
               int64_t heads) const;

  private:
    RopeTable(int64_t rows, int64_t headDim);

    int64_t rows_; ///< Positions tabled.
    int64_t headDim_;
    std::vector<float> cos_; ///< (rows, headDim / 2), row-major.
    std::vector<float> sin_; ///< Same layout.
};

} // namespace lrd

#endif // LRD_MODEL_ROPE_H
