/**
 * @file
 * Synthetic training-corpus generator over a World: emits fact,
 * rumor, arithmetic, pattern and agreement sentences, and assembles
 * them into fixed-length training documents.
 */

#ifndef LRD_TRAIN_CORPUS_H
#define LRD_TRAIN_CORPUS_H

#include "train/world.h"

namespace lrd {

/** Pattern families used by pattern sentences and the HellaSwag-style
 *  benchmark. */
enum class PatternFamily {
    Alternation, ///< X Y X Y ...
    Repetition,  ///< X X X X ...
    Counting,    ///< NUM_k NUM_{k+1} ...
    Countdown,   ///< NUM_k NUM_{k-1} ...
    PeriodThree, ///< X X Y X X Y ...
};

/** Number of pattern families. */
constexpr int kNumPatternFamilies = 5;

/** Random sentence/document sampler over a World. */
class CorpusGenerator
{
  public:
    CorpusGenerator(const World &world, uint64_t seed);

    /** One random sentence from the mixture; ends with <sep>. */
    TokenSeq sentence();

    /** "<bos> s1 <sep> s2 <sep> ..." cropped to exactly `len` tokens. */
    TokenSeq document(int len);

    /** @name Individual sentence emitters
     *  @{
     */
    /**
     * Plain color sentence as it actually circulates: for
     * myth-dominant entities the myth color appears more often than
     * the truth (and vice versa). This is the TruthfulQA mechanism.
     */
    TokenSeq colorSentenceSampled(int entity, Rng &rng) const;
    /** "E IS_A categoryOf(E) <sep>". */
    TokenSeq categoryFact(int entity) const;
    /** "E LIVES_IN placeOf(E) <sep>". */
    TokenSeq placeFact(int entity) const;
    /** "RUMOR E HAS_COLOR mythColorOf(E) <sep>". */
    TokenSeq rumorSentence(int entity) const;
    /** "NUM_a PLUS NUM_b EQUALS NUM_{a+b} <sep>"; a + b in range. */
    TokenSeq additionFact(int a, int b) const;
    /** "NUM_a PLUS NUM_b PLUS NUM_c EQUALS NUM_{a+b+c} <sep>". */
    TokenSeq additionChain(int a, int b, int c) const;
    /** Deterministic 8-symbol pattern + <sep>. The seed symbols are
     *  the family's free parameters. */
    TokenSeq patternSentence(PatternFamily family, int sym0,
                             int sym1) const;
    /** "E verb pronoun(gender(E)) <sep>". */
    TokenSeq agreementSentence(int entity, int verb) const;
    /** @} */

    const World &world() const { return world_; }
    Rng &rng() { return rng_; }

  private:
    const World &world_;
    Rng rng_;
};

} // namespace lrd

#endif // LRD_TRAIN_CORPUS_H
