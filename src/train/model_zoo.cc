#include "model_zoo.h"

#include "util/cache.h"
#include "util/logging.h"

namespace lrd {

const World &
defaultWorld()
{
    static World world{WorldSpec{}};
    return world;
}

TrainOptions
zooTrainOptions(Arch arch)
{
    TrainOptions t;
    if (arch == Arch::LlamaStyle) {
        t.steps = 700;
        t.batchSeqs = 8;
        t.seqLen = 64;
        t.lr = 3e-3;
        t.seed = 31337;
    } else {
        t.steps = 2200;
        t.batchSeqs = 8;
        t.seqLen = 64;
        t.lr = 3e-3;
        t.mlmProb = 0.25;
        t.seed = 97531;
    }
    return t;
}

namespace {

/** Cache key versioned by recipe so stale checkpoints self-invalidate. */
std::string
zooCacheKey(const ModelConfig &cfg, const TrainOptions &t)
{
    return strCat("zoo-", cfg.name, "-v7-d", cfg.dModel, "-l", cfg.nLayers,
                  "-s", t.steps, "x", t.batchSeqs, ".bin");
}

TransformerModel
trainOrLoad(const ModelConfig &cfg)
{
    const TrainOptions t = zooTrainOptions(cfg.arch);
    const std::string key = zooCacheKey(cfg, t);
    if (cacheHas(key)) {
        Result<std::vector<uint8_t>> cached = cacheRead(key);
        if (cached.ok())
            return TransformerModel::deserialize(cached.value());
        warn("model zoo: " + cached.status().toString()
             + "; retraining");
    }
    inform(strCat("model zoo: training ", cfg.name,
                  " from scratch (cached afterwards at ", cachePath(key),
                  ")"));
    TransformerModel model(cfg, /*seed=*/cfg.arch == Arch::LlamaStyle
                                    ? 1001
                                    : 2002);
    Trainer trainer(model, defaultWorld(), t);
    const double finalLoss = trainer.run();
    inform(strCat("model zoo: ", cfg.name, " final train loss ",
                  finalLoss));
    cacheWrite(key, model.serialize());
    return model;
}

} // namespace

TransformerModel
pretrainedTinyLlama()
{
    return trainOrLoad(tinyLlamaConfig());
}

TransformerModel
pretrainedTinyBert()
{
    return trainOrLoad(tinyBertConfig());
}

} // namespace lrd
