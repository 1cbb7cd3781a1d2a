/**
 * @file
 * Robustness tests for model serialization: format stability,
 * corruption detection, factorized manifests, and cross-config
 * mismatch handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>

#include "model/transformer.h"
#include "tensor/ops.h"
#include "util/cache.h"
#include "util/memprobe.h"

namespace lrd {
namespace {

std::vector<uint8_t>
bytesFor(uint64_t seed)
{
    TransformerModel m(testLlamaConfig(), seed);
    return m.serialize();
}

TEST(Serialization, DeterministicBytesForSameModel)
{
    EXPECT_EQ(bytesFor(7), bytesFor(7));
    EXPECT_NE(bytesFor(7), bytesFor(8));
}

TEST(Serialization, TruncatedStreamIsRejected)
{
    auto bytes = bytesFor(1);
    for (size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                       bytes.size() - 1}) {
        std::vector<uint8_t> truncated(bytes.begin(),
                                       bytes.begin()
                                           + static_cast<int64_t>(cut));
        EXPECT_THROW(TransformerModel::deserialize(truncated),
                     std::runtime_error)
            << "cut at " << cut;
    }
}

TEST(Serialization, BadMagicIsRejected)
{
    auto bytes = bytesFor(2);
    bytes[8] ^= 0xFF; // inside the magic string
    EXPECT_THROW(TransformerModel::deserialize(bytes),
                 std::runtime_error);

    // Only "lrd-model-v3" is read; nothing ever wrote v1 or v2.
    for (uint8_t version : {'1', '2'}) {
        auto old = bytesFor(2);
        ASSERT_EQ(old[8 + 11], '3'); // after the u64 length prefix
        old[8 + 11] = version;
        try {
            (void)TransformerModel::deserialize(old);
            ADD_FAILURE() << "a v" << version << " stream was read";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("bad magic"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Serialization, ConfigRoundTripsExactly)
{
    ModelConfig cfg = testBertConfig();
    cfg.name = "custom-name";
    TransformerModel m(cfg, 3);
    TransformerModel m2 = TransformerModel::deserialize(m.serialize());
    EXPECT_EQ(m2.config().name, "custom-name");
    EXPECT_EQ(m2.config().arch, cfg.arch);
    EXPECT_EQ(m2.config().vocabSize, cfg.vocabSize);
    EXPECT_EQ(m2.config().dModel, cfg.dModel);
    EXPECT_EQ(m2.config().nLayers, cfg.nLayers);
    EXPECT_EQ(m2.config().nHeads, cfg.nHeads);
    EXPECT_EQ(m2.config().dFf, cfg.dFf);
    EXPECT_EQ(m2.config().maxSeq, cfg.maxSeq);
}

TEST(Serialization, FactorizedManifestPreservesRanks)
{
    TransformerModel m(testLlamaConfig(), 4);
    ASSERT_TRUE(m.linear(0, WeightKind::Down).factorize(3).ok());
    ASSERT_TRUE(m.linear(1, WeightKind::Key).factorize(1).ok());
    TransformerModel m2 = TransformerModel::deserialize(m.serialize());
    EXPECT_TRUE(m2.linear(0, WeightKind::Down).isFactorized());
    EXPECT_EQ(m2.linear(0, WeightKind::Down).prunedRank(), 3);
    EXPECT_TRUE(m2.linear(1, WeightKind::Key).isFactorized());
    EXPECT_EQ(m2.linear(1, WeightKind::Key).prunedRank(), 1);
    EXPECT_FALSE(m2.linear(0, WeightKind::Key).isFactorized());
}

TEST(Serialization, FactorizedCheckpointIsSmallerProportionally)
{
    TransformerModel dense(testLlamaConfig(), 5);
    const size_t denseSize = dense.serialize().size();

    TransformerModel comp(testLlamaConfig(), 5);
    for (WeightKind k : decomposableKinds(Arch::LlamaStyle))
        for (int64_t l = 0; l < comp.numLayers(); ++l)
            ASSERT_TRUE(comp.linear(l, k).factorize(1).ok());
    const size_t compSize = comp.serialize().size();
    // Param counts predict the byte sizes (4 bytes per float + small
    // header/manifest overhead).
    const double paramRatio = static_cast<double>(comp.paramCount())
                              / static_cast<double>(dense.paramCount());
    const double byteRatio = static_cast<double>(compSize)
                             / static_cast<double>(denseSize);
    EXPECT_NEAR(byteRatio, paramRatio, 0.12); // small model: header/name overhead
}

TEST(Serialization, GqaConfigSurvivesRoundTrip)
{
    ModelConfig cfg = testLlamaConfig();
    cfg.nKvHeads = 1;
    TransformerModel m(cfg, 7);
    // nKvHeads is derivable from the K projection shape; verify the
    // deserialized model is numerically identical.
    TransformerModel m2 = TransformerModel::deserialize(m.serialize());
    Rng rng(1);
    TokenSeq toks = {1, 2, 3, 4};
    EXPECT_LT(relativeError(m.forward(toks), m2.forward(toks)), 1e-7);
}

/** A model holds its weights and nothing else: the tensor bytes a
 *  deserialize of tiny-llama allocates are its parameter bytes, to
 *  within 1% (a model that also kept a gradient per weight took 2x). */
TEST(Serialization, DeserializeAllocatesOnlyTheWeights)
{
    const std::vector<uint8_t> bytes =
        TransformerModel(tinyLlamaConfig(), 3).serialize();
    const int64_t before = tensorArenaStats().allocBytes;
    const TransformerModel m = TransformerModel::deserialize(bytes);
    const int64_t allocated = tensorArenaStats().allocBytes - before;
    const auto weights =
        static_cast<double>(m.paramCount() * sizeof(float));
    EXPECT_GE(static_cast<double>(allocated), weights);
    EXPECT_LE(static_cast<double>(allocated), 1.01 * weights);
}

TEST(Serialization, HostileLengthFieldsAreRejected)
{
    // All five fail as malformed streams, not with std::length_error,
    // std::bad_alloc, a heap overrun or a library panic.
    ByteWriter hugeString; // magic string of 2^64 - 1 bytes
    hugeString.putU64(~uint64_t{0});
    EXPECT_THROW(TransformerModel::deserialize(hugeString.bytes()),
                 std::runtime_error);

    // A valid stream whose first parameter claims 2^62 floats.
    std::vector<uint8_t> hugeFloats = bytesFor(9);
    const std::string firstName = "emb.tok";
    const auto name = std::search(hugeFloats.begin(), hugeFloats.end(),
                                  firstName.begin(), firstName.end());
    ASSERT_NE(name, hugeFloats.end());
    const auto count = static_cast<size_t>(name - hugeFloats.begin())
                       + firstName.size();
    for (size_t i = 0; i < 8; ++i)
        hugeFloats[count + i] = i == 7 ? 0x40 : 0; // 2^62, little-endian
    EXPECT_THROW(TransformerModel::deserialize(hugeFloats),
                 std::runtime_error);

    // Llama headers: vocab dModel nLayers nHeads nKvHeads dFf maxSeq.
    const auto llamaHeader = [](std::initializer_list<uint64_t> fields) {
        ByteWriter w;
        w.putString("lrd-model-v3");
        w.putString("hostile");
        w.putU32(0); // LlamaStyle
        for (uint64_t field : fields)
            w.putU64(field);
        return w;
    };

    // A header alone, declaring dModel = 2^40.
    const ByteWriter hugeModel =
        llamaHeader({32, uint64_t{1} << 40, 2, 2, 0, 24, 24});
    EXPECT_THROW(TransformerModel::deserialize(hugeModel.bytes()),
                 std::runtime_error);

    // maxSeq = 2^62 + 1 at head dim 8, with the 320 zero bytes the
    // embedding, norms and lm_head size check asks for. The RoPE table
    // does not grow with maxSeq, so the model builds and the padding
    // fails as a parameter list.
    ByteWriter hugeSeq =
        llamaHeader({1, 16, 1, 2, 0, 24, (uint64_t{1} << 62) + 1});
    for (int i = 0; i < 40; ++i)
        hugeSeq.putU64(0);
    EXPECT_THROW(TransformerModel::deserialize(hugeSeq.bytes()),
                 std::runtime_error);

    // A manifest entry (layer 0, kind 99, rank 1) naming no tensor a
    // Llama block has, then the same 320 zero bytes.
    ByteWriter badKind = llamaHeader({1, 16, 1, 2, 0, 24, 24});
    badKind.putU64(1);
    badKind.putU64(0);
    badKind.putU32(99);
    badKind.putU64(1);
    for (int i = 0; i < 40; ++i)
        badKind.putU64(0);
    EXPECT_THROW(TransformerModel::deserialize(badKind.bytes()),
                 std::runtime_error);
}

} // namespace
} // namespace lrd
