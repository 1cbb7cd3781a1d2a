/**
 * @file
 * What training keeps outside the model: the Tape a taped forward
 * records for the backward pass, and the Gradients the backward pass
 * accumulates into. Both belong to the caller, so a model holds its
 * weights and nothing else, every forward and backward is const, and
 * workers that train and workers that score share one model.
 */

#ifndef LRD_MODEL_TAPE_H
#define LRD_MODEL_TAPE_H

#include <unordered_map>
#include <utility>
#include <vector>

#include "model/parameter.h"
#include "tensor/tensor.h"

namespace lrd {

/**
 * The tensors each layer's backward reads, recorded by one forward and
 * keyed by the layer's address. Keyed, not stacked: every backward then
 * runs where it always has, so every dx sum keeps its order.
 */
class Tape
{
  public:
    /** Record `saved` for `layer` (lvalues are copied, rvalues moved);
     *  fatal when it recorded already (one tape holds one forward). */
    template <class... Ts>
    void record(const void *layer, Ts &&...saved)
    {
        std::vector<Tensor> tensors;
        tensors.reserve(sizeof...(saved));
        (tensors.emplace_back(std::forward<Ts>(saved)), ...);
        insert(layer, std::move(tensors));
    }

    /** What `layer` recorded; fatal when it recorded nothing. */
    const std::vector<Tensor> &at(const void *layer) const;

  private:
    void insert(const void *layer, std::vector<Tensor> saved);

    std::unordered_map<const void *, std::vector<Tensor>> saved_;
};

/** One zeroed gradient per parameter, in the order given (a model's
 *  parameters() order), looked up by the parameter's address. */
class Gradients
{
  public:
    explicit Gradients(const std::vector<Parameter *> &params);

    /** The gradient of `p`; fatal for a parameter not given. */
    Tensor &of(const Parameter &p);

    /** The i-th gradient, in the order the parameters were given. */
    Tensor &operator[](size_t i) { return grads_[i]; }
    const Tensor &operator[](size_t i) const { return grads_[i]; }
    size_t size() const { return grads_.size(); }

    void zero();

  private:
    std::vector<Tensor> grads_;
    std::unordered_map<const Parameter *, size_t> index_;
};

} // namespace lrd

#endif // LRD_MODEL_TAPE_H
