#include "corpus.h"

#include <algorithm>

#include "util/logging.h"

namespace lrd {

CorpusGenerator::CorpusGenerator(const World &world, uint64_t seed)
    : world_(world), rng_(seed)
{
}

TokenSeq
CorpusGenerator::colorSentenceSampled(int entity, Rng &rng) const
{
    // Myth-dominant entities: the false color is stated twice as
    // often as the true one; otherwise the truth strongly dominates.
    const double pMyth = world_.mythDominant(entity) ? 2.0 / 3.0 : 0.1;
    const int color = rng.bernoulli(pMyth) ? world_.mythColorOf(entity)
                                           : world_.colorOf(entity);
    return {world_.entityToken(entity), world_.hasColorToken(),
            world_.colorToken(color), world_.sepToken()};
}

TokenSeq
CorpusGenerator::categoryFact(int entity) const
{
    return {world_.entityToken(entity), world_.isAToken(),
            world_.categoryToken(world_.categoryOf(entity)),
            world_.sepToken()};
}

TokenSeq
CorpusGenerator::placeFact(int entity) const
{
    return {world_.entityToken(entity), world_.livesInToken(),
            world_.placeToken(world_.placeOf(entity)), world_.sepToken()};
}

TokenSeq
CorpusGenerator::rumorSentence(int entity) const
{
    return {world_.rumorToken(), world_.entityToken(entity),
            world_.hasColorToken(),
            world_.colorToken(world_.mythColorOf(entity)),
            world_.sepToken()};
}

TokenSeq
CorpusGenerator::additionFact(int a, int b) const
{
    const int max = world_.spec().numNumbers;
    require(a >= 0 && b >= 0 && a + b < max,
            "CorpusGenerator::additionFact: sum out of range");
    return {world_.numberToken(a), world_.plusToken(),
            world_.numberToken(b), world_.equalsToken(),
            world_.numberToken(a + b), world_.sepToken()};
}

TokenSeq
CorpusGenerator::additionChain(int a, int b, int c) const
{
    const int max = world_.spec().numNumbers;
    require(a >= 0 && b >= 0 && c >= 0 && a + b + c < max,
            "CorpusGenerator::additionChain: sum out of range");
    return {world_.numberToken(a), world_.plusToken(),
            world_.numberToken(b), world_.plusToken(),
            world_.numberToken(c), world_.equalsToken(),
            world_.numberToken(a + b + c), world_.sepToken()};
}

TokenSeq
CorpusGenerator::patternSentence(PatternFamily family, int sym0,
                                 int sym1) const
{
    constexpr int kLen = 8;
    TokenSeq out;
    switch (family) {
      case PatternFamily::Alternation:
        for (int i = 0; i < kLen; ++i)
            out.push_back(world_.patternToken(i % 2 == 0 ? sym0 : sym1));
        break;
      case PatternFamily::Repetition:
        for (int i = 0; i < kLen; ++i)
            out.push_back(world_.patternToken(sym0));
        break;
      case PatternFamily::Counting: {
        const int max = world_.spec().numNumbers;
        const int start = sym0 % std::max(1, max - kLen);
        for (int i = 0; i < kLen; ++i)
            out.push_back(world_.numberToken(start + i));
        break;
      }
      case PatternFamily::Countdown: {
        const int max = world_.spec().numNumbers;
        const int start =
            kLen - 1 + sym0 % std::max(1, max - kLen + 1);
        for (int i = 0; i < kLen; ++i)
            out.push_back(world_.numberToken(start - i));
        break;
      }
      case PatternFamily::PeriodThree:
        for (int i = 0; i < kLen; ++i)
            out.push_back(
                world_.patternToken(i % 3 == 2 ? sym1 : sym0));
        break;
    }
    out.push_back(world_.sepToken());
    return out;
}

TokenSeq
CorpusGenerator::agreementSentence(int entity, int verb) const
{
    return {world_.entityToken(entity), world_.verbToken(verb),
            world_.pronounToken(world_.genderOf(entity)),
            world_.sepToken()};
}

TokenSeq
CorpusGenerator::sentence()
{
    // Mixture weights tuned so every benchmark's supporting facts
    // appear with useful frequency; rumors are *more* frequent than
    // true color facts, which is what makes the TruthfulQA-style
    // probe adversarial.
    static const std::vector<double> kWeights = {
        4.0, // plain color sentence (frequency-skewed truth/myth)
        2.0, // category fact
        2.0, // place fact
        2.0, // rumor (explicitly marked myth)
        2.0, // addition
        1.0, // addition chain
        3.0, // pattern
        2.0, // agreement
    };
    const size_t kind = rng_.categorical(kWeights);
    const WorldSpec &spec = world_.spec();
    switch (kind) {
      case 0:
        return colorSentenceSampled(world_.sampleEntityZipf(rng_), rng_);
      case 1: return categoryFact(world_.sampleEntityZipf(rng_));
      case 2: return placeFact(world_.sampleEntityZipf(rng_));
      case 3: return rumorSentence(world_.sampleEntityZipf(rng_));
      case 4: {
        const int a = static_cast<int>(
            rng_.uniformInt(static_cast<uint64_t>(spec.numNumbers / 2)));
        const int b = static_cast<int>(
            rng_.uniformInt(static_cast<uint64_t>(spec.numNumbers - a)));
        return additionFact(a, b);
      }
      case 5: {
        const int third = spec.numNumbers / 3;
        const int a = static_cast<int>(
            rng_.uniformInt(static_cast<uint64_t>(third)));
        const int b = static_cast<int>(
            rng_.uniformInt(static_cast<uint64_t>(third)));
        const int c = static_cast<int>(
            rng_.uniformInt(static_cast<uint64_t>(third)));
        return additionChain(a, b, c);
      }
      case 6: {
        const auto family = static_cast<PatternFamily>(
            rng_.uniformInt(kNumPatternFamilies));
        const int nSym = spec.numPatternSymbols;
        const int s0 = static_cast<int>(
            rng_.uniformInt(static_cast<uint64_t>(nSym)));
        int s1 = static_cast<int>(
            rng_.uniformInt(static_cast<uint64_t>(nSym - 1)));
        if (s1 >= s0)
            ++s1;
        TokenSeq s = patternSentence(family, s0, s1);
        // Corrupt one position with probability 1/4 so patterns are
        // learned imperfectly (keeps the HellaSwag-style benchmark
        // off the accuracy ceiling).
        if (rng_.bernoulli(0.25)) {
            const size_t pos = rng_.uniformInt(s.size() - 1);
            s[pos] = world_.patternToken(static_cast<int>(
                rng_.uniformInt(static_cast<uint64_t>(nSym))));
        }
        return s;
      }
      default:
        return agreementSentence(
            world_.sampleEntityZipf(rng_),
            static_cast<int>(rng_.uniformInt(
                static_cast<uint64_t>(spec.numVerbs))));
    }
}

TokenSeq
CorpusGenerator::document(int len)
{
    require(len >= 2, "CorpusGenerator::document: length too small");
    TokenSeq doc = {world_.bosToken()};
    while (static_cast<int>(doc.size()) < len) {
        const TokenSeq s = sentence();
        doc.insert(doc.end(), s.begin(), s.end());
    }
    doc.resize(static_cast<size_t>(len));
    return doc;
}

} // namespace lrd
