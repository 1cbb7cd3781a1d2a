/**
 * @file
 * Dense row-major N-dimensional float tensor.
 *
 * This is the single numeric container used by the whole library:
 * model weights, activations, decomposition factors, and gradients.
 * Storage is value-semantic (owned std::vector<float>); copies are
 * deep, moves are cheap.
 */

#ifndef LRD_TENSOR_TENSOR_H
#define LRD_TENSOR_TENSOR_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.h"

namespace lrd {

/** Shape of a tensor: per-mode extents. */
using Shape = std::vector<int64_t>;

/** Product of extents (the element count); 1 for an empty shape. */
int64_t numElements(const Shape &shape);

/**
 * Dense row-major N-dimensional tensor of float32.
 *
 * Rank-0 tensors (scalars) are permitted and hold one element.
 * All indexing is bounds-checked in debug-style accessors (at());
 * the raw data() pointer is available for hot loops.
 */
class Tensor
{
  public:
    /** An empty (rank-0, single element, zero) tensor. */
    Tensor();

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** Tensor with explicit contents; data.size() must match shape. */
    Tensor(Shape shape, std::vector<float> data);

    /** @name Arena-accounted special members
     *  Every tensor reports its payload bytes to the arena counters
     *  (util/memprobe.h, one cell per thread) so the telemetry sampler
     *  can chart live numeric memory without walking live objects.
     *  Moves transfer the accounted bytes; copies account their own.
     *  @{
     */
    ~Tensor();
    Tensor(const Tensor &other);
    Tensor(Tensor &&other) noexcept;
    Tensor &operator=(const Tensor &other);
    Tensor &operator=(Tensor &&other) noexcept;
    /** @} */

    /** @name Factories
     *  @{
     */
    static Tensor zeros(Shape shape);
    static Tensor ones(Shape shape);
    static Tensor full(Shape shape, float value);
    /** Identity matrix of size n x n. */
    static Tensor eye(int64_t n);
    /** I.i.d. normal entries with the given std deviation. */
    static Tensor randn(Shape shape, Rng &rng, float stddev = 1.0F);
    /** @} */

    const Shape &shape() const { return shape_; }
    int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
    int64_t size() const { return static_cast<int64_t>(data_.size()); }
    /** Extent of mode i (bounds-checked). */
    int64_t dim(int64_t i) const;

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &storage() { return data_; }
    const std::vector<float> &storage() const { return data_; }

    /** Bounds-checked element access by multi-index. */
    float &at(const std::vector<int64_t> &index);
    float at(const std::vector<int64_t> &index) const;

    /** Fast 2D accessors (asserts rank() == 2 in checked paths). */
    float &operator()(int64_t i, int64_t j);
    float operator()(int64_t i, int64_t j) const;

    /** Flat element access. */
    float &operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
    float operator[](int64_t i) const
    {
        return data_[static_cast<size_t>(i)];
    }

    /** Linear offset of a multi-index (row-major). */
    int64_t offsetOf(const std::vector<int64_t> &index) const;

    /** Set every element to the given value. */
    void fill(float value);

    /** Sum of all elements. */
    double sum() const;

    /** Frobenius norm (sqrt of sum of squares). */
    double norm() const;

    /** "[shape] (n elems)" debugging summary. */
    std::string describe() const;

  private:
    /** Report this tensor's payload to the arena counters. */
    void accountAlloc();

    Shape shape_;
    std::vector<float> data_;
    /** Bytes this instance reported as allocated (0 after move-out);
     *  external growth through storage() is deliberately unaccounted
     *  — the counters are a telemetry gauge, not an allocator. */
    int64_t accountedBytes_ = 0;
};

} // namespace lrd

#endif // LRD_TENSOR_TENSOR_H
