/**
 * @file
 * The synthetic "world" that substitutes for the paper's natural-
 * language training data and benchmark suites.
 *
 * The world defines a small vocabulary over entities, attributes
 * (colors, categories, places), numbers, verbs/pronouns and pattern
 * tokens, plus a ground-truth relational database:
 *
 *  - every entity has a true color / category / place / gender;
 *  - every entity also has a "myth" color distinct from its true
 *    color, circulated in RUMOR-marked sentences (the mechanism behind
 *    the TruthfulQA-style benchmark and its reverse accuracy trend);
 *  - numbers support small additions (the GSM8K-style benchmark);
 *  - pattern families (alternation, repetition, counting) provide
 *    sentence-completion structure (the HellaSwag-style benchmark).
 *
 * Entity mention frequency in the corpus is Zipfian, so facts about
 * tail entities are learned weakly — the MMLU-style benchmark draws
 * from the tail, which is what makes it the hardest accuracy probe,
 * mirroring the paper's benchmark difficulty ordering.
 */

#ifndef LRD_TRAIN_WORLD_H
#define LRD_TRAIN_WORLD_H

#include <cstdint>
#include <vector>

#include "model/embedding.h"
#include "util/rng.h"

namespace lrd {

/** Size knobs for the synthetic world. */
struct WorldSpec
{
    int numEntities = 200;
    int numColors = 16;
    int numCategories = 16;
    int numPlaces = 16;
    int numNumbers = 21; ///< Tokens NUM_0 .. NUM_{numNumbers-1}.
    int numVerbs = 8;
    int numPatternSymbols = 12;
    /** Probability that an entity's myth color dominates its true
     *  color in the plain (unmarked) corpus — the TruthfulQA-style
     *  misconception rate. */
    double mythDominanceProb = 0.7;
    uint64_t seed = 2024;
};

/** Vocabulary layout + ground-truth relations of the synthetic world. */
class World
{
  public:
    explicit World(const WorldSpec &spec = {});

    const WorldSpec &spec() const { return spec_; }
    int vocabSize() const { return vocabSize_; }

    /** @name Special tokens (0 is a padding id nothing emits)
     *  @{
     */
    int bosToken() const { return 1; }
    int sepToken() const { return 2; }
    int maskToken() const { return 3; }
    /** @} */

    /** @name Structural tokens (relations, operators, markers; 10 is
     *  a reserved id nothing emits)
     *  @{
     */
    int hasColorToken() const { return 4; }
    int isAToken() const { return 5; }
    int livesInToken() const { return 6; }
    int plusToken() const { return 7; }
    int equalsToken() const { return 8; }
    int rumorToken() const { return 9; }
    /** @} */

    /** @name Content tokens
     *  @{
     */
    int entityToken(int i) const;
    int colorToken(int i) const;
    int categoryToken(int i) const;
    int placeToken(int i) const;
    int numberToken(int n) const;
    int verbToken(int i) const;
    int pronounToken(int gender) const; ///< gender in {0, 1}.
    int patternToken(int i) const;
    /** @} */

    /** @name Ground truth
     *  @{
     */
    int colorOf(int entity) const;
    int categoryOf(int entity) const;
    int placeOf(int entity) const;
    int genderOf(int entity) const;
    /** Widely-circulated false color, always != colorOf(entity). */
    int mythColorOf(int entity) const;
    /** Whether the myth dominates the plain corpus for this entity. */
    bool mythDominant(int entity) const;
    /** @} */

    /**
     * Sample an entity index with Zipfian frequency (head entities are
     * mentioned far more often than tail entities).
     */
    int sampleEntityZipf(Rng &rng) const;

  private:
    WorldSpec spec_;
    int vocabSize_;
    std::vector<int> colorOf_;
    std::vector<int> categoryOf_;
    std::vector<int> placeOf_;
    std::vector<int> genderOf_;
    std::vector<int> mythColorOf_;
    std::vector<bool> mythDominant_;
    std::vector<double> zipfWeights_;
};

} // namespace lrd

#endif // LRD_TRAIN_WORLD_H
