#include "config.h"

#include "util/logging.h"

namespace lrd {

std::string
weightKindName(WeightKind kind)
{
    switch (kind) {
      case WeightKind::Query: return "Wq";
      case WeightKind::Key: return "Wk";
      case WeightKind::Value: return "Wv";
      case WeightKind::SelfOutput: return "Wso";
      case WeightKind::Gate: return "Wg";
      case WeightKind::Up: return "Wu";
      case WeightKind::Down: return "Wd";
      case WeightKind::Intermediate: return "Wint";
      case WeightKind::Output: return "Wout";
    }
    panic("weightKindName: unknown kind");
}

std::vector<WeightKind>
decomposableKinds(Arch arch)
{
    if (arch == Arch::LlamaStyle) {
        return {WeightKind::Query, WeightKind::Key, WeightKind::Value,
                WeightKind::SelfOutput, WeightKind::Gate, WeightKind::Up,
                WeightKind::Down};
    }
    return {WeightKind::Query, WeightKind::Key, WeightKind::Value,
            WeightKind::SelfOutput, WeightKind::Intermediate,
            WeightKind::Output};
}

int64_t
ModelConfig::numDecomposableTensors() const
{
    return static_cast<int64_t>(decomposableKinds(arch).size());
}

std::vector<int64_t>
ModelConfig::weightShape(WeightKind kind) const
{
    switch (kind) {
      case WeightKind::Query:
      case WeightKind::SelfOutput:
        return {dModel, dModel};
      case WeightKind::Key:
      case WeightKind::Value:
        return {kvDim(), dModel};
      case WeightKind::Gate:
      case WeightKind::Up:
        require(arch == Arch::LlamaStyle,
                "weightShape: Gate/Up only exist in LlamaStyle");
        return {dFf, dModel};
      case WeightKind::Down:
        require(arch == Arch::LlamaStyle,
                "weightShape: Down only exists in LlamaStyle");
        return {dModel, dFf};
      case WeightKind::Intermediate:
        require(arch == Arch::BertStyle,
                "weightShape: Intermediate only exists in BertStyle");
        return {dFf, dModel};
      case WeightKind::Output:
        require(arch == Arch::BertStyle,
                "weightShape: Output only exists in BertStyle");
        return {dModel, dFf};
    }
    panic("weightShape: unknown kind");
}

int64_t
ModelConfig::layerDecomposableParams() const
{
    int64_t n = 0;
    for (WeightKind kind : decomposableKinds(arch)) {
        const auto shape = weightShape(kind);
        n += shape[0] * shape[1];
    }
    return n;
}

int64_t
ModelConfig::totalParams() const
{
    int64_t n = vocabSize * dModel; // token embedding
    if (arch == Arch::BertStyle)
        n += maxSeq * dModel; // learned positions
    // Per-layer: decomposable tensors + two norm scales (+ norm biases
    // and linear biases in BERT).
    int64_t perLayer = layerDecomposableParams();
    if (arch == Arch::LlamaStyle) {
        perLayer += 2 * dModel; // two RMSNorm weights
    } else {
        perLayer += 2 * 2 * dModel; // two LayerNorms (w + b)
        // Linear biases: Wq and Wo are dModel wide, Wk and Wv kvDim
        // (narrower under grouped KV heads), then Wint and Wout.
        perLayer += 2 * dModel + 2 * kvDim() + dFf + dModel;
    }
    n += nLayers * perLayer;
    if (arch == Arch::LlamaStyle)
        n += dModel; // final RMSNorm
    n += vocabSize * dModel; // untied LM head
    return n;
}

int64_t
ModelConfig::allDecomposableParams() const
{
    return nLayers * layerDecomposableParams();
}

void
ModelConfig::validate() const
{
    require(vocabSize > 0, "ModelConfig: vocabSize must be positive");
    require(dModel > 0 && nLayers > 0 && nHeads > 0 && dFf > 0 && maxSeq > 0,
            "ModelConfig: all dimensions must be positive");
    require(dModel % nHeads == 0, "ModelConfig: dModel ", dModel,
            " not divisible by nHeads ", nHeads);
    require(headDim() % 2 == 0,
            "ModelConfig: head dim must be even (RoPE pairs)");
    require(nKvHeads >= 0 && kvHeads() <= nHeads
                && nHeads % kvHeads() == 0,
            "ModelConfig: nKvHeads ", nKvHeads, " must divide nHeads ",
            nHeads);
}

ModelConfig
tinyLlamaConfig()
{
    ModelConfig c;
    c.name = "tiny-llama";
    c.arch = Arch::LlamaStyle;
    c.vocabSize = 320;
    c.dModel = 64;
    c.nLayers = 8;
    c.nHeads = 4;
    c.dFf = 176;
    c.maxSeq = 96;
    return c;
}

ModelConfig
tinyBertConfig()
{
    ModelConfig c;
    c.name = "tiny-bert";
    c.arch = Arch::BertStyle;
    c.vocabSize = 320;
    c.dModel = 64;
    c.nLayers = 6;
    c.nHeads = 4;
    c.dFf = 192;
    c.maxSeq = 96;
    return c;
}

ModelConfig
testLlamaConfig()
{
    ModelConfig c;
    c.name = "test-llama";
    c.arch = Arch::LlamaStyle;
    c.vocabSize = 32;
    c.dModel = 16;
    c.nLayers = 2;
    c.nHeads = 2;
    c.dFf = 24;
    c.maxSeq = 24;
    return c;
}

ModelConfig
testBertConfig() // lrd-lint: allow(dead-symbol) test fixture: Evaluator.BertPathRunsAndIsDeterministic
{
    ModelConfig c;
    c.name = "test-bert";
    c.arch = Arch::BertStyle;
    c.vocabSize = 32;
    c.dModel = 16;
    c.nLayers = 2;
    c.nHeads = 2;
    c.dFf = 24;
    c.maxSeq = 24;
    return c;
}

ModelConfig
llama2_7bConfig()
{
    ModelConfig c;
    c.name = "Llama2-7B";
    c.arch = Arch::LlamaStyle;
    c.vocabSize = 32000;
    c.dModel = 4096;
    c.nLayers = 32;
    c.nHeads = 32;
    c.dFf = 11008;
    c.maxSeq = 4096;
    return c;
}

ModelConfig
llama2_70bConfig()
{
    ModelConfig c;
    c.name = "Llama2-70B";
    c.arch = Arch::LlamaStyle;
    c.vocabSize = 32000;
    c.dModel = 8192;
    c.nLayers = 80;
    c.nHeads = 64;
    c.nKvHeads = 8; // grouped-query attention
    c.dFf = 28672;
    c.maxSeq = 4096;
    return c;
}

ModelConfig
bertBaseConfig()
{
    ModelConfig c;
    c.name = "BERT-Base";
    c.arch = Arch::BertStyle;
    c.vocabSize = 30522;
    c.dModel = 768;
    c.nLayers = 12;
    c.nHeads = 12;
    c.dFf = 3072;
    c.maxSeq = 512;
    return c;
}

ModelConfig
bertLargeConfig()
{
    ModelConfig c;
    c.name = "BERT-Large";
    c.arch = Arch::BertStyle;
    c.vocabSize = 30522;
    c.dModel = 1024;
    c.nLayers = 24;
    c.nHeads = 16;
    c.dFf = 4096;
    c.maxSeq = 512;
    return c;
}

} // namespace lrd
