#include "tape.h"

#include "util/logging.h"

namespace lrd {

void
Tape::insert(const void *layer, std::vector<Tensor> saved)
{
    const bool fresh = saved_.emplace(layer, std::move(saved)).second;
    require(fresh, "Tape::record: the layer recorded already");
}

const std::vector<Tensor> &
Tape::at(const void *layer) const
{
    const auto it = saved_.find(layer);
    require(it != saved_.end(),
            "Tape::at: no taped forward of this layer to run backward on");
    return it->second;
}

Gradients::Gradients(const std::vector<Parameter *> &params)
{
    grads_.reserve(params.size());
    for (const Parameter *p : params) {
        index_.emplace(p, grads_.size());
        grads_.emplace_back(p->value.shape());
    }
}

Tensor &
Gradients::of(const Parameter &p)
{
    const auto it = index_.find(&p);
    require(it != index_.end(), "Gradients::of: no gradient for ", p.name);
    return grads_[it->second];
}

void
Gradients::zero()
{
    for (Tensor &g : grads_)
        g.fill(0.0F);
}

} // namespace lrd
