#include "linear.h"

#include <cmath>

#include "decomp/tucker.h"
#include "model/tape.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

Linear::Linear(int64_t outDim, int64_t inDim, bool hasBias,
               const std::string &name, Rng *rng)
    : outDim_(outDim), inDim_(inDim), hasBias_(hasBias), name_(name)
{
    require(outDim > 0 && inDim > 0, "Linear: dims must be positive");
    const float stddev = 1.0F / std::sqrt(static_cast<float>(inDim));
    w_ = Parameter(name + ".w",
                   rng != nullptr
                       ? Tensor::randn({outDim, inDim}, *rng, stddev)
                       : Tensor({outDim, inDim}));
    if (hasBias_)
        b_ = Parameter(name + ".b", Tensor({outDim}));
}

Tensor
Linear::forward(const Tensor &x, Tape *tape) const
{
    require(x.rank() == 2 && x.dim(1) == inDim_, "Linear::forward: input ",
            x.shape(), " incompatible with in dim ", inDim_);
    if (MetricsRegistry::enabled()) {
        // Racing first lookups store the same handle.
        Counter *macs = macsCounter_->load();
        if (macs == nullptr) {
            macs = MetricsRegistry::instance().counter(
                strCat("model.", name_, ".macs"));
            macsCounter_->store(macs);
        }
        const int64_t n = x.dim(0);
        macs->add(
            !factorized_
                ? n * outDim_ * inDim_
                : n * prunedRank_ * inDim_
                      + n * prunedRank_ * prunedRank_
                      + n * outDim_ * prunedRank_);
    }
    const int64_t n = x.dim(0);
    Tensor y({n, outDim_});
    if (!factorized_) {
        gemmTransB(x.data(), w_.value.data(), y.data(), n, inDim_, outDim_);
        if (tape != nullptr)
            tape->record(this, x);
    } else {
        // y = ((x U2^T) core^T) U1^T, the same three products taped
        // and untaped at every n. A taped forward keeps the two (n, pr)
        // intermediates for backward(); an untaped one writes them to
        // per-thread scratch, so it allocates only y.
        const auto chain = [&](float *t1, float *t2) {
            gemmTransB(x.data(), u2_.value.data(), t1, n, inDim_,
                       prunedRank_);
            gemmTransB(t1, core_.value.data(), t2, n, prunedRank_,
                       prunedRank_);
            gemmTransB(t2, u1_.value.data(), y.data(), n, prunedRank_,
                       outDim_);
        };
        if (tape != nullptr) {
            Tensor t1({n, prunedRank_});
            Tensor t2({n, prunedRank_});
            chain(t1.data(), t2.data());
            tape->record(this, x, std::move(t1), std::move(t2));
        } else {
            thread_local std::vector<float> scratch;
            // lrd-lint: allow(hot-path-alloc) thread_local scratch: grows to the largest (n, pr) pair a thread sees, reused after
            scratch.resize(static_cast<size_t>(2 * n * prunedRank_));
            chain(scratch.data(), scratch.data() + n * prunedRank_);
        }
    }
    if (hasBias_) {
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < outDim_; ++j)
                y(i, j) += b_.value[j];
    }
    return y;
}

Tensor
Linear::backward(const Tensor &dy, const Tape &tape, Gradients &grads) const
{
    require(dy.rank() == 2 && dy.dim(1) == outDim_, "Linear::backward: grad ",
            dy.shape(), " incompatible with out dim ", outDim_);
    // A forward taped before the layout changed does not match.
    const std::vector<Tensor> &saved = tape.at(this);
    require(saved.size() == (factorized_ ? 3U : 1U)
                && dy.dim(0) == saved[0].dim(0),
            "Linear::backward: no matching forward");
    const Tensor &x = saved[0];

    if (hasBias_) {
        Tensor &db = grads.of(b_);
        const int64_t n = dy.dim(0);
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < outDim_; ++j)
                db[j] += dy(i, j);
    }

    if (!factorized_) {
        // dW += dy^T x ; dx = dy W.
        gemmTransA(dy.data(), x.data(), grads.of(w_).data(), dy.dim(0),
                   outDim_, inDim_, /*accumulate=*/true);
        return matmul(dy, w_.value);
    }

    // y = ((x U2^T) core^T) U1^T.
    const Tensor &t1 = saved[1];
    const Tensor &t2 = saved[2];
    Tensor dT2 = matmul(dy, u1_.value); // (n, pr)
    gemmTransA(dy.data(), t2.data(), grads.of(u1_).data(), dy.dim(0),
               outDim_, prunedRank_, true);
    Tensor dT1 = matmul(dT2, core_.value); // (n, pr)
    gemmTransA(dT2.data(), t1.data(), grads.of(core_).data(), dT2.dim(0),
               prunedRank_, prunedRank_, true);
    gemmTransA(dT1.data(), x.data(), grads.of(u2_).data(), dT1.dim(0),
               prunedRank_, inDim_, true);
    return matmul(dT1, u2_.value);
}

Status
Linear::factorize(int64_t prunedRank)
{
    require(!factorized_, "Linear::factorize: already factorized");
    require(prunedRank >= 1 && prunedRank <= std::min(outDim_, inDim_),
            "Linear::factorize: rank ", prunedRank, " invalid for (", outDim_,
            ", ", inDim_, ")");
    return factorizeFromSvd(decomposeWithPolicy(w_.value, w_.name),
                            prunedRank);
}

Status
Linear::factorizeFromSvd(const SvdResult &full, int64_t prunedRank)
{
    require(!factorized_, "Linear::factorizeFromSvd: already factorized");
    if (!full.status.ok())
        return full.status;
    require(full.u.dim(0) == outDim_ && full.v.dim(0) == inDim_,
            "Linear::factorizeFromSvd: SVD of a (", full.u.dim(0), ", ",
            full.v.dim(0), ") matrix for (", outDim_, ", ", inDim_, ")");
    installFactors(tucker2dFromSvd(full, prunedRank));
    return Status();
}

Status
Linear::factorizeActivationAware(int64_t prunedRank,
                                 const std::vector<float> &colScale)
{
    require(!factorized_,
            "Linear::factorizeActivationAware: already factorized");
    require(static_cast<int64_t>(colScale.size()) == inDim_,
            "Linear::factorizeActivationAware: ", colScale.size(),
            " scales for in dim ", inDim_);
    for (float s : colScale)
        require(s > 0.0F && std::isfinite(s),
                "Linear::factorizeActivationAware: scales must be "
                "positive and finite");
    // Decompose W * diag(s); unscale U2 afterwards.
    Tensor scaled = w_.value;
    for (int64_t r = 0; r < outDim_; ++r) {
        float *row = scaled.data() + r * inDim_;
        for (int64_t c = 0; c < inDim_; ++c)
            row[c] *= colScale[static_cast<size_t>(c)];
    }
    const SvdResult full = decomposeWithPolicy(scaled, w_.name);
    if (!full.status.ok())
        return full.status;
    Tucker2d d = tucker2dFromSvd(full, prunedRank);
    for (int64_t r = 0; r < prunedRank; ++r) {
        float *row = d.u2.data() + r * inDim_;
        for (int64_t c = 0; c < inDim_; ++c)
            row[c] /= colScale[static_cast<size_t>(c)];
    }
    installFactors(std::move(d));
    return Status();
}

void
Linear::installFactorShape(int64_t prunedRank)
{
    require(!factorized_, "Linear::installFactorShape: already factorized");
    require(prunedRank >= 1 && prunedRank <= std::min(outDim_, inDim_),
            "Linear::installFactorShape: rank ", prunedRank, " invalid for (",
            outDim_, ", ", inDim_, ")");
    Tucker2d zeros;
    zeros.u1 = Tensor({outDim_, prunedRank});
    zeros.core = Tensor({prunedRank, prunedRank});
    zeros.u2 = Tensor({prunedRank, inDim_});
    installFactors(std::move(zeros));
}

void
Linear::installFactors(Tucker2d d)
{
    prunedRank_ = d.core.dim(0);
    const std::string base = w_.name;
    u1_ = Parameter(base + ".u1", std::move(d.u1));
    core_ = Parameter(base + ".core", std::move(d.core));
    u2_ = Parameter(base + ".u2", std::move(d.u2));
    w_ = Parameter(base, Tensor({0}));
    factorized_ = true;
}

int64_t
Linear::paramCount() const
{
    int64_t n = hasBias_ ? outDim_ : 0;
    if (factorized_)
        n += u1_.size() + core_.size() + u2_.size();
    else
        n += w_.size();
    return n;
}

std::vector<Parameter *>
Linear::parameters()
{
    std::vector<Parameter *> ps;
    if (factorized_) {
        ps.push_back(&u1_);
        ps.push_back(&core_);
        ps.push_back(&u2_);
    } else {
        ps.push_back(&w_);
    }
    if (hasBias_)
        ps.push_back(&b_);
    return ps;
}

Parameter &
Linear::weight()
{
    require(!factorized_, "Linear::weight: layer is factorized");
    return w_;
}

const Parameter &
Linear::weight() const
{
    require(!factorized_, "Linear::weight: layer is factorized");
    return w_;
}

Tensor
Linear::effectiveWeight() const // lrd-lint: allow(dead-symbol) test oracle: FusedFactorizedForward.MatchesUnfusedWithinTolerance
{
    if (!factorized_)
        return w_.value;
    return matmul(matmul(u1_.value, core_.value), u2_.value);
}

} // namespace lrd
