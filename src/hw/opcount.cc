#include "opcount.h"

#include <algorithm>

#include "decomp/tucker.h"
#include "util/logging.h"

namespace lrd {

namespace {

/** MACs for one application of a (possibly decomposed) weight of
 *  shape (out, in) to `tokens` activations. */
int64_t
linearMacs(int64_t out, int64_t in, int64_t rank, int64_t tokens)
{
    if (rank <= 0) // dense
        return tokens * out * in;
    return tokens * (in * rank + rank * rank + rank * out);
}

/** Parameter count of a (possibly decomposed) weight. */
int64_t
linearParams(int64_t out, int64_t in, int64_t rank)
{
    if (rank <= 0)
        return denseParams(out, in);
    return decomposedParams(out, in, rank);
}

/** Rank for (layer, kind) under gamma; 0 when not decomposed. */
int64_t
effectiveRank(const DecompConfig &gamma, int layer, WeightKind kind)
{
    if (std::find(gamma.layers.begin(), gamma.layers.end(), layer)
        == gamma.layers.end())
        return 0;
    if (std::find(gamma.tensors.begin(), gamma.tensors.end(), kind)
        == gamma.tensors.end())
        return 0;
    return gamma.rankFor(layer, kind);
}

} // namespace

std::vector<OpProfile>
profileTransformer(const ModelConfig &cfg, const DecompConfig &gamma,
                   const WorkloadParams &wl)
{
    std::string why;
    require(gamma.valid(cfg, &why), "profileTransformer: invalid gamma: ",
            why);
    const int64_t tokens = wl.batch * wl.seqLen;
    const int64_t bp = wl.bytesPerParam;
    std::vector<OpProfile> ops;

    // Embedding lookup: no MACs, touches seqLen rows.
    ops.push_back({"embedding", 0, tokens * cfg.dModel * bp});

    for (int64_t l = 0; l < cfg.nLayers; ++l) {
        for (WeightKind kind : decomposableKinds(cfg.arch)) {
            const auto shape = cfg.weightShape(kind);
            const int64_t rank =
                effectiveRank(gamma, static_cast<int>(l), kind);
            ops.push_back(
                {strCat("layer", l, ".", weightKindName(kind)),
                 linearMacs(shape[0], shape[1], rank, tokens),
                 linearParams(shape[0], shape[1], rank) * bp});
        }
        // Attention BMMs: QK^T and PV, each batch*heads*T*T*headDim.
        const int64_t bmm =
            wl.batch * cfg.nHeads * wl.seqLen * wl.seqLen * cfg.headDim();
        ops.push_back({strCat("layer", l, ".bmm_qk"), bmm, 0});
        ops.push_back({strCat("layer", l, ".bmm_pv"), bmm, 0});
    }

    // LM head.
    ops.push_back({"lm_head", tokens * cfg.dModel * cfg.vocabSize,
                   cfg.dModel * cfg.vocabSize * bp});
    return ops;
}

int64_t
transformerMacs(const ModelConfig &cfg, const DecompConfig &gamma,
                const WorkloadParams &wl)
{
    int64_t total = 0;
    for (const OpProfile &op : profileTransformer(cfg, gamma, wl))
        total += op.macs;
    return total;
}

int64_t
transformerWeightBytes(const ModelConfig &cfg, const DecompConfig &gamma,
                       int bytesPerParam)
{
    std::string why;
    require(gamma.valid(cfg, &why), "transformerWeightBytes: invalid gamma: ",
            why);
    // Total params minus the savings of the decomposed tensors.
    const int64_t saved = gamma.paramsBefore(cfg) - gamma.paramsAfter(cfg);
    return (cfg.totalParams() - saved) * bytesPerParam;
}

int64_t
kvCacheBytesPerToken(const ModelConfig &cfg, int bytesPerParam)
{
    // K + V rows are kvDim wide (smaller than dModel under GQA).
    return 2 * cfg.nLayers * cfg.kvDim() * bytesPerParam;
}

int64_t
transformerDecodeMacs(const ModelConfig &cfg, const DecompConfig &gamma,
                      int64_t batch, int64_t contextLen)
{
    // One token per sequence: every linear runs once per sequence;
    // attention reads `contextLen` cached positions.
    int64_t total = 0;
    for (int64_t l = 0; l < cfg.nLayers; ++l) {
        for (WeightKind kind : decomposableKinds(cfg.arch)) {
            const auto shape = cfg.weightShape(kind);
            const int64_t rank =
                effectiveRank(gamma, static_cast<int>(l), kind);
            total += linearMacs(shape[0], shape[1], rank, batch);
        }
        total += 2 * batch * cfg.nHeads * contextLen * cfg.headDim();
    }
    total += batch * cfg.dModel * cfg.vocabSize;
    return total;
}

namespace {

/** A convolution layer spec for analytical counting. */
struct ConvSpec
{
    int64_t inC, outC, kernel, outHW;
};

/** ResNet-50 as a flat list of convolutions + the final FC.
 *  Bottleneck blocks: 1x1 reduce, 3x3, 1x1 expand; the first block of
 *  each stage adds a 1x1 projection shortcut. */
std::vector<ConvSpec>
resnet50Convs()
{
    std::vector<ConvSpec> convs;
    convs.push_back({3, 64, 7, 112}); // stem

    struct Stage { int64_t mid, out, blocks, hw; };
    const std::vector<Stage> stages = {
        {64, 256, 3, 56},
        {128, 512, 4, 28},
        {256, 1024, 6, 14},
        {512, 2048, 3, 7},
    };
    int64_t inC = 64;
    for (const Stage &s : stages) {
        for (int64_t b = 0; b < s.blocks; ++b) {
            convs.push_back({inC, s.mid, 1, s.hw});
            convs.push_back({s.mid, s.mid, 3, s.hw});
            convs.push_back({s.mid, s.out, 1, s.hw});
            if (b == 0)
                convs.push_back({inC, s.out, 1, s.hw}); // projection
            inC = s.out;
        }
    }
    return convs;
}

} // namespace

int64_t
resnet50Params()
{
    int64_t params = 0;
    for (const ConvSpec &c : resnet50Convs()) {
        params += c.inC * c.outC * c.kernel * c.kernel;
        params += 2 * c.outC; // batch-norm scale + shift
    }
    params += 2048 * 1000 + 1000; // final FC
    return params;
}

int64_t
resnet50Macs()
{
    int64_t macs = 0;
    for (const ConvSpec &c : resnet50Convs())
        macs += c.inC * c.outC * c.kernel * c.kernel * c.outHW * c.outHW;
    macs += 2048 * 1000;
    return macs;
}

} // namespace lrd
