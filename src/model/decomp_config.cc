#include "decomp_config.h"

#include <algorithm>
#include <sstream>

#include "decomp/tucker.h"
#include "parallel/thread_pool.h"
#include "util/logging.h"

namespace lrd {

namespace {

/** WeightKind values; Output is the last enumerator. */
constexpr int kNumKinds = static_cast<int>(WeightKind::Output) + 1;

/** FactorBank slot of weight (layer, kind), layer-major. */
size_t
slotIndex(int layer, WeightKind kind)
{
    return static_cast<size_t>(layer) * kNumKinds
           + static_cast<size_t>(kind);
}

void
requireValid(const DecompConfig &gamma, const ModelConfig &cfg)
{
    std::string why;
    require(gamma.valid(cfg, &why),
            "DecompConfig::applyTo: invalid configuration: ", why);
}

} // namespace

DecompConfig
DecompConfig::identity()
{
    return DecompConfig{};
}

DecompConfig
DecompConfig::allTensors(const ModelConfig &cfg, std::vector<int> layers,
                         int64_t prunedRank)
{
    DecompConfig c;
    c.layers = std::move(layers);
    std::sort(c.layers.begin(), c.layers.end());
    c.tensors = decomposableKinds(cfg.arch);
    c.prunedRank = prunedRank;
    return c;
}

DecompConfig
DecompConfig::oneTensor(WeightKind kind, std::vector<int> layers,
                        int64_t prunedRank)
{
    DecompConfig c;
    c.layers = std::move(layers);
    std::sort(c.layers.begin(), c.layers.end());
    c.tensors = {kind};
    c.prunedRank = prunedRank;
    return c;
}

std::vector<PrunedRankEntry>
DecompConfig::prunedRanks() const
{
    std::vector<PrunedRankEntry> out;
    for (int l : layers)
        for (WeightKind k : tensors)
            out.push_back({l, k, rankFor(l, k)});
    return out;
}

int64_t
DecompConfig::rankFor(int layer, WeightKind kind) const
{
    const auto it =
        rankOverrides.find({layer, static_cast<int>(kind)});
    return it != rankOverrides.end() ? it->second : prunedRank;
}

bool
DecompConfig::valid(const ModelConfig &cfg, std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why != nullptr)
            *why = msg;
        return false;
    };
    // Empty layer/tensor sets are only valid together (the identity).
    if (layers.empty() != tensors.empty())
        return fail("layers and tensors must be both empty or both "
                    "non-empty");
    const auto kinds = decomposableKinds(cfg.arch);
    for (int l : layers) {
        if (l < 0 || l >= cfg.nLayers)
            return fail(strCat("layer ", l, " out of range [0, ",
                               cfg.nLayers, ")"));
    }
    if (std::adjacent_find(layers.begin(), layers.end())
        != layers.end())
        return fail("duplicate layer in Decomp_Layers");
    for (WeightKind k : tensors) {
        if (std::find(kinds.begin(), kinds.end(), k) == kinds.end())
            return fail(weightKindName(k)
                        + " is not decomposable in this architecture");
    }
    // Rank bounds: 0 < p <= rank(l, k) = min(dims).
    for (const PrunedRankEntry &e : prunedRanks()) {
        const auto shape = cfg.weightShape(e.kind);
        const int64_t maxRank = std::min(shape[0], shape[1]);
        if (e.rank < 1 || e.rank > maxRank)
            return fail(strCat("rank ", e.rank, " for ",
                               weightKindName(e.kind), " in layer ",
                               e.layer, " outside [1, ", maxRank, "]"));
    }
    // Proposition 3.1: every override must reference a decomposed
    // (layer, tensor) pair.
    for (const auto &[key, rank] : rankOverrides) {
        const auto [l, kInt] = key;
        (void)rank;
        if (std::find(layers.begin(), layers.end(), l) == layers.end())
            return fail(strCat("rank override for layer ", l,
                               " which is not decomposed"));
        const auto kind = static_cast<WeightKind>(kInt);
        if (std::find(tensors.begin(), tensors.end(), kind)
            == tensors.end())
            return fail("rank override for tensor "
                        + weightKindName(kind)
                        + " which is not decomposed");
    }
    return true;
}

int64_t
DecompConfig::paramsBefore(const ModelConfig &cfg) const
{
    int64_t n = 0;
    for (const PrunedRankEntry &e : prunedRanks()) {
        const auto shape = cfg.weightShape(e.kind);
        n += denseParams(shape[0], shape[1]);
    }
    return n;
}

int64_t
DecompConfig::paramsAfter(const ModelConfig &cfg) const
{
    int64_t n = 0;
    for (const PrunedRankEntry &e : prunedRanks()) {
        const auto shape = cfg.weightShape(e.kind);
        n += decomposedParams(shape[0], shape[1], e.rank);
    }
    return n;
}

double
DecompConfig::parameterReduction(const ModelConfig &cfg) const
{
    const int64_t removed = paramsBefore(cfg) - paramsAfter(cfg);
    return static_cast<double>(removed)
           / static_cast<double>(cfg.totalParams());
}

Status
DecompConfig::applyTo(TransformerModel &model) const
{
    return applyTo(model, FactorBank(model, {*this}));
}

Status
DecompConfig::applyTo(TransformerModel &model, const FactorBank &bank) const
{
    requireValid(*this, model.config());
    const std::vector<PrunedRankEntry> entries = prunedRanks();
    Status first;
    int64_t numFailed = 0;
    for (const PrunedRankEntry &e : entries) {
        Status s = model.linear(e.layer, e.kind)
                       .factorizeFromSvd(bank.at(e.layer, e.kind), e.rank);
        if (!s.ok()) {
            ++numFailed;
            if (first.ok())
                first = std::move(s);
        }
    }
    if (numFailed > 0)
        return Status(first.code(), "decomp.apply",
                      strCat(numFailed, " of ", entries.size(),
                             " tensors left dense; first: ",
                             first.toString()));
    return Status();
}

std::string
DecompConfig::describe() const
{
    if (empty())
        return "identity (no decomposition)";
    std::ostringstream oss;
    oss << "layers={";
    for (size_t i = 0; i < layers.size(); ++i)
        oss << (i ? "," : "") << layers[i];
    oss << "} tensors={";
    for (size_t i = 0; i < tensors.size(); ++i)
        oss << (i ? "," : "") << weightKindName(tensors[i]);
    oss << "} pr=" << prunedRank;
    if (!rankOverrides.empty())
        oss << " (+" << rankOverrides.size() << " overrides)";
    return oss.str();
}

FactorBank::FactorBank(TransformerModel &dense,
                       const std::vector<DecompConfig> &configs)
    : slots_(static_cast<size_t>(dense.config().nLayers * kNumKinds)),
      banked_(slots_.size(), 0)
{
    // Collect the weights serially: an invalid configuration or an
    // already factorized weight is reported on the calling thread,
    // before any SVD runs.
    std::vector<const Parameter *> weights(slots_.size(), nullptr);
    for (const DecompConfig &gamma : configs) {
        requireValid(gamma, dense.config());
        for (int l : gamma.layers) {
            for (WeightKind k : gamma.tensors) {
                const size_t i = slotIndex(l, k);
                weights[i] = &dense.linear(l, k).weight();
                banked_[i] = 1;
            }
        }
    }
    // A chunk the pool's cancel drain skips never writes its slot, so
    // every banked slot starts out Cancelled rather than as an ok
    // empty SVD.
    for (size_t i = 0; i < slots_.size(); ++i)
        if (banked_[i] != 0)
            slots_[i].status =
                Status(StatusCode::Cancelled, "decomp.bank",
                       "SVD skipped: cancellation drained its chunk");
    parallelFor(0, static_cast<int64_t>(slots_.size()), 1,
                [&](int64_t lo, int64_t hi) {
                    for (auto i = static_cast<size_t>(lo);
                         i < static_cast<size_t>(hi); ++i)
                        if (weights[i] != nullptr)
                            slots_[i] = decomposeWithPolicy(
                                weights[i]->value, weights[i]->name);
                });
}

const SvdResult &
FactorBank::at(int layer, WeightKind kind) const
{
    const size_t i = slotIndex(layer, kind);
    if (layer < 0 || i >= slots_.size() || banked_[i] == 0)
        fatal(strCat("FactorBank: no SVD of ", weightKindName(kind),
                     " in layer ", layer));
    return slots_[i];
}

} // namespace lrd
