#include "world.h"

#include "util/logging.h"

namespace lrd {

namespace {
constexpr int kNumStructural = 11; ///< Tokens 0..10 are fixed.
}

World::World(const WorldSpec &spec) : spec_(spec)
{
    require(spec_.numEntities > 1 && spec_.numColors > 2
                && spec_.numCategories > 1 && spec_.numPlaces > 1
                && spec_.numNumbers > 4 && spec_.numVerbs > 0
                && spec_.numPatternSymbols > 3,
            "World: spec dimensions too small");

    vocabSize_ = kNumStructural + spec_.numEntities + spec_.numColors
                 + spec_.numCategories + spec_.numPlaces
                 + spec_.numNumbers + spec_.numVerbs + 2 /*pronouns*/
                 + spec_.numPatternSymbols;

    Rng rng(spec_.seed);
    colorOf_.resize(static_cast<size_t>(spec_.numEntities));
    categoryOf_.resize(colorOf_.size());
    placeOf_.resize(colorOf_.size());
    genderOf_.resize(colorOf_.size());
    mythColorOf_.resize(colorOf_.size());
    mythDominant_.resize(colorOf_.size());
    for (int e = 0; e < spec_.numEntities; ++e) {
        colorOf_[static_cast<size_t>(e)] = static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(spec_.numColors)));
        categoryOf_[static_cast<size_t>(e)] = static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(spec_.numCategories)));
        placeOf_[static_cast<size_t>(e)] = static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(spec_.numPlaces)));
        genderOf_[static_cast<size_t>(e)] =
            static_cast<int>(rng.uniformInt(2));
        // Myth color: uniformly among the non-true colors.
        int myth = static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(spec_.numColors - 1)));
        if (myth >= colorOf_[static_cast<size_t>(e)])
            ++myth;
        mythColorOf_[static_cast<size_t>(e)] = myth;
        mythDominant_[static_cast<size_t>(e)] =
            rng.bernoulli(spec_.mythDominanceProb);
    }

    zipfWeights_.resize(static_cast<size_t>(spec_.numEntities));
    for (int e = 0; e < spec_.numEntities; ++e)
        zipfWeights_[static_cast<size_t>(e)] = 1.0 / (1.0 + e);
}

int
World::entityToken(int i) const
{
    require(i >= 0 && i < spec_.numEntities, "World: bad entity index");
    return kNumStructural + i;
}

int
World::colorToken(int i) const
{
    require(i >= 0 && i < spec_.numColors, "World: bad color index");
    return kNumStructural + spec_.numEntities + i;
}

int
World::categoryToken(int i) const
{
    require(i >= 0 && i < spec_.numCategories, "World: bad category index");
    return kNumStructural + spec_.numEntities + spec_.numColors + i;
}

int
World::placeToken(int i) const
{
    require(i >= 0 && i < spec_.numPlaces, "World: bad place index");
    return kNumStructural + spec_.numEntities + spec_.numColors
           + spec_.numCategories + i;
}

int
World::numberToken(int n) const
{
    require(n >= 0 && n < spec_.numNumbers, "World: bad number");
    return kNumStructural + spec_.numEntities + spec_.numColors
           + spec_.numCategories + spec_.numPlaces + n;
}

int
World::verbToken(int i) const
{
    require(i >= 0 && i < spec_.numVerbs, "World: bad verb index");
    return kNumStructural + spec_.numEntities + spec_.numColors
           + spec_.numCategories + spec_.numPlaces + spec_.numNumbers + i;
}

int
World::pronounToken(int gender) const
{
    require(gender == 0 || gender == 1, "World: bad gender");
    return kNumStructural + spec_.numEntities + spec_.numColors
           + spec_.numCategories + spec_.numPlaces + spec_.numNumbers
           + spec_.numVerbs + gender;
}

int
World::patternToken(int i) const
{
    require(i >= 0 && i < spec_.numPatternSymbols,
            "World: bad pattern symbol");
    return kNumStructural + spec_.numEntities + spec_.numColors
           + spec_.numCategories + spec_.numPlaces + spec_.numNumbers
           + spec_.numVerbs + 2 + i;
}

int
World::colorOf(int entity) const
{
    require(entity >= 0 && entity < spec_.numEntities, "World: bad entity");
    return colorOf_[static_cast<size_t>(entity)];
}

int
World::categoryOf(int entity) const
{
    require(entity >= 0 && entity < spec_.numEntities, "World: bad entity");
    return categoryOf_[static_cast<size_t>(entity)];
}

int
World::placeOf(int entity) const
{
    require(entity >= 0 && entity < spec_.numEntities, "World: bad entity");
    return placeOf_[static_cast<size_t>(entity)];
}

int
World::genderOf(int entity) const
{
    require(entity >= 0 && entity < spec_.numEntities, "World: bad entity");
    return genderOf_[static_cast<size_t>(entity)];
}

int
World::mythColorOf(int entity) const
{
    require(entity >= 0 && entity < spec_.numEntities, "World: bad entity");
    return mythColorOf_[static_cast<size_t>(entity)];
}

bool
World::mythDominant(int entity) const
{
    require(entity >= 0 && entity < spec_.numEntities, "World: bad entity");
    return mythDominant_[static_cast<size_t>(entity)];
}

int
World::sampleEntityZipf(Rng &rng) const
{
    return static_cast<int>(rng.categorical(zipfWeights_));
}

} // namespace lrd
