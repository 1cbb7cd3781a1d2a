/**
 * @file
 * A trainable parameter: a named weight tensor. Its gradient lives in
 * a caller-owned Gradients buffer (model/tape.h), so a model that only
 * infers allocates its weights and nothing more.
 */

#ifndef LRD_MODEL_PARAMETER_H
#define LRD_MODEL_PARAMETER_H

#include <string>

#include "tensor/tensor.h"

namespace lrd {

/** A named trainable tensor. */
struct Parameter
{
    Parameter() = default;
    Parameter(std::string n, Tensor v)
        : name(std::move(n)), value(std::move(v))
    {
    }

    std::string name;
    Tensor value;

    int64_t size() const { return value.size(); }
};

} // namespace lrd

#endif // LRD_MODEL_PARAMETER_H
