#include "benchmarks.h"

#include <algorithm>

#include "train/corpus.h"
#include "util/logging.h"

namespace lrd {

const std::vector<BenchmarkKind> &
allBenchmarks()
{
    static const std::vector<BenchmarkKind> kAll = {
        BenchmarkKind::ArcEasy,    BenchmarkKind::ArcChallenge,
        BenchmarkKind::HellaSwag,  BenchmarkKind::Mmlu,
        BenchmarkKind::TruthfulQa, BenchmarkKind::WinoGrande,
        BenchmarkKind::Gsm8k,
    };
    return kAll;
}

std::string
benchmarkName(BenchmarkKind kind)
{
    switch (kind) {
      case BenchmarkKind::ArcEasy: return "ARC Easy";
      case BenchmarkKind::ArcChallenge: return "ARC Challenge";
      case BenchmarkKind::HellaSwag: return "HellaSwag";
      case BenchmarkKind::Mmlu: return "MMLU";
      case BenchmarkKind::TruthfulQa: return "TruthfulQA";
      case BenchmarkKind::WinoGrande: return "WinoGrande";
      case BenchmarkKind::Gsm8k: return "GSM8K";
    }
    panic("benchmarkName: unknown kind");
}

namespace {

/** The three fact relations a question can probe. */
enum class Relation { Color, Category, Place };

int
relationToken(const World &w, Relation r)
{
    switch (r) {
      case Relation::Color: return w.hasColorToken();
      case Relation::Category: return w.isAToken();
      case Relation::Place: return w.livesInToken();
    }
    panic("relationToken: unknown relation");
}

int
relationAnswerToken(const World &w, Relation r, int entity)
{
    switch (r) {
      case Relation::Color: return w.colorToken(w.colorOf(entity));
      case Relation::Category:
        return w.categoryToken(w.categoryOf(entity));
      case Relation::Place: return w.placeToken(w.placeOf(entity));
    }
    panic("relationAnswerToken: unknown relation");
}

int
relationFamilySize(const World &w, Relation r)
{
    switch (r) {
      case Relation::Color: return w.spec().numColors;
      case Relation::Category: return w.spec().numCategories;
      case Relation::Place: return w.spec().numPlaces;
    }
    panic("relationFamilySize: unknown relation");
}

int
relationFamilyToken(const World &w, Relation r, int i)
{
    switch (r) {
      case Relation::Color: return w.colorToken(i);
      case Relation::Category: return w.categoryToken(i);
      case Relation::Place: return w.placeToken(i);
    }
    panic("relationFamilyToken: unknown relation");
}

/** Sample a same-family distractor token != answer. */
int
sameFamilyDistractor(const World &w, Relation r, int answerToken, Rng &rng)
{
    const int n = relationFamilySize(w, r);
    for (;;) {
        const int tok = relationFamilyToken(
            w, r, static_cast<int>(
                      rng.uniformInt(static_cast<uint64_t>(n))));
        if (tok != answerToken)
            return tok;
    }
}

/** Sample a distractor token from a *different* attribute family. */
int
crossFamilyDistractor(const World &w, Relation r, Rng &rng)
{
    for (;;) {
        const auto other = static_cast<Relation>(rng.uniformInt(3));
        if (other == r)
            continue;
        const int n = relationFamilySize(w, other);
        return relationFamilyToken(
            w, other,
            static_cast<int>(rng.uniformInt(static_cast<uint64_t>(n))));
    }
}

/** Place `goldToken` and distractors into a shuffled 4-choice item. */
McTask
assembleChoices(TokenSeq context, int goldToken,
                std::vector<int> distractors, Rng &rng)
{
    McTask task;
    task.context = std::move(context);
    std::vector<int> all = {goldToken};
    all.insert(all.end(), distractors.begin(), distractors.end());
    // Shuffle while tracking the gold position.
    for (size_t i = all.size(); i > 1; --i) {
        const size_t j = rng.uniformInt(i);
        std::swap(all[i - 1], all[j]);
    }
    for (size_t i = 0; i < all.size(); ++i) {
        task.choices.push_back({all[i]});
        if (all[i] == goldToken)
            task.gold = static_cast<int>(i);
    }
    return task;
}

/** Entity sampler for head-biased benchmarks: restrict to the first
 *  quarter of the (Zipf-ordered) entity list, i.e. the well-learned
 *  entities. */
int
sampleHeadEntity(const World &w, Rng &rng)
{
    const int head = std::max(2, w.spec().numEntities / 4);
    return static_cast<int>(rng.uniformInt(static_cast<uint64_t>(head)));
}

McTask
makeFactTask(const World &w, Rng &rng, bool headEntities,
             bool sameFamilyDistractors)
{
    const int entity = headEntities
                           ? sampleHeadEntity(w, rng)
                           : static_cast<int>(rng.uniformInt(
                                 static_cast<uint64_t>(
                                     w.spec().numEntities)));
    // Color facts are excluded: the plain corpus deliberately skews
    // their frequency (the TruthfulQA mechanism), so knowledge QA
    // probes only the uncontaminated category/place relations.
    const auto rel =
        static_cast<Relation>(1 + rng.uniformInt(2));
    const int answer = relationAnswerToken(w, rel, entity);
    TokenSeq ctx = {w.bosToken(), w.entityToken(entity),
                    relationToken(w, rel)};
    std::vector<int> distractors;
    while (distractors.size() < 3) {
        // Easy mode still includes one same-family distractor so the
        // item is not solvable by type constraints alone.
        const bool sameFamily =
            sameFamilyDistractors || distractors.empty();
        const int d = sameFamily
                          ? sameFamilyDistractor(w, rel, answer, rng)
                          : crossFamilyDistractor(w, rel, rng);
        if (d == answer)
            continue;
        if (std::find(distractors.begin(), distractors.end(), d)
            != distractors.end())
            continue;
        distractors.push_back(d);
    }
    return assembleChoices(std::move(ctx), answer, std::move(distractors),
                           rng);
}

McTask
makeArithmeticTask(const World &w, Rng &rng)
{
    const int nn = w.spec().numNumbers;
    const int a = static_cast<int>(
        rng.uniformInt(static_cast<uint64_t>(nn / 2)));
    const int b = static_cast<int>(
        rng.uniformInt(static_cast<uint64_t>(nn - a)));
    const int answer = w.numberToken(a + b);
    TokenSeq ctx = {w.bosToken(), w.numberToken(a), w.plusToken(),
                    w.numberToken(b), w.equalsToken()};
    std::vector<int> distractors;
    while (distractors.size() < 3) {
        const int d = w.numberToken(static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(nn))));
        if (d == answer
            || std::find(distractors.begin(), distractors.end(), d)
                   != distractors.end())
            continue;
        distractors.push_back(d);
    }
    return assembleChoices(std::move(ctx), answer, std::move(distractors),
                           rng);
}

McTask
makeHellaSwagTask(const World &w, Rng &rng)
{
    CorpusGenerator gen(w, rng.next());
    const auto family = static_cast<PatternFamily>(
        rng.uniformInt(kNumPatternFamilies));
    const int nSym = w.spec().numPatternSymbols;
    const int s0 =
        static_cast<int>(rng.uniformInt(static_cast<uint64_t>(nSym)));
    int s1 =
        static_cast<int>(rng.uniformInt(static_cast<uint64_t>(nSym - 1)));
    if (s1 >= s0)
        ++s1;
    TokenSeq full = gen.patternSentence(family, s0, s1); // 8 syms + sep
    TokenSeq ctx = {w.bosToken()};
    ctx.insert(ctx.end(), full.begin(), full.begin() + 6);
    const TokenSeq goldCont(full.begin() + 6, full.begin() + 8);

    McTask task;
    task.context = std::move(ctx);
    // Distractors are *off-phase copies* built from the context's own
    // tokens (wrong-phase induction, off-by-one counting), so a model
    // with imperfect pattern tracking is genuinely confusable —
    // random-symbol distractors would be trivially rejected.
    std::vector<TokenSeq> conts = {goldCont};
    auto addIfNew = [&](TokenSeq cont) {
        if (conts.size() < 4
            && std::find(conts.begin(), conts.end(), cont) == conts.end())
            conts.push_back(std::move(cont));
    };
    const int a = task.context[task.context.size() - 2]; // pos 4 token
    const int b = task.context[task.context.size() - 1]; // pos 5 token
    if (family == PatternFamily::Counting
        || family == PatternFamily::Countdown) {
        const int g0 = goldCont[0], g1 = goldCont[1];
        const int lo = w.numberToken(0);
        const int hi = w.numberToken(w.spec().numNumbers - 1);
        auto clampNum = [&](int t) { return std::min(hi, std::max(lo, t)); };
        addIfNew({b, g0});                          // one-step stutter
        addIfNew({g0, clampNum(g1 + (family == PatternFamily::Counting
                                         ? 1 : -1))}); // skips a step
        addIfNew({clampNum(g0 + (family == PatternFamily::Counting
                                     ? 1 : -1)),
                  clampNum(g1 + (family == PatternFamily::Counting
                                     ? 1 : -1))});  // off-by-one phase
        addIfNew({a, b});                           // verbatim repeat
    } else {
        // Symbol families: permutations of the two context symbols.
        addIfNew({goldCont[1], goldCont[0]});
        addIfNew({a, b});
        addIfNew({b, a});
        addIfNew({goldCont[0], goldCont[0] == a ? b : a});
        addIfNew({b, b});
        addIfNew({a, a});
    }
    // Degenerate patterns (e.g. repetition) collapse many of the
    // above; fall back to other-pattern continuations.
    while (conts.size() < 4) {
        const auto otherFamily = static_cast<PatternFamily>(
            rng.uniformInt(kNumPatternFamilies));
        int o0 = static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(nSym)));
        int o1 = static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(nSym - 1)));
        if (o1 >= o0)
            ++o1;
        TokenSeq other = gen.patternSentence(otherFamily, o0, o1);
        addIfNew(TokenSeq(other.begin() + 6, other.begin() + 8));
    }
    for (size_t i = conts.size(); i > 1; --i) {
        const size_t j = rng.uniformInt(i);
        std::swap(conts[i - 1], conts[j]);
    }
    for (size_t i = 0; i < conts.size(); ++i) {
        if (conts[i] == goldCont)
            task.gold = static_cast<int>(i);
        task.choices.push_back(std::move(conts[i]));
    }
    return task;
}

McTask
makeTruthfulQaTask(const World &w, Rng &rng)
{
    const int entity = sampleHeadEntity(w, rng);
    const int truth = w.colorToken(w.colorOf(entity));
    const int myth = w.colorToken(w.mythColorOf(entity));
    TokenSeq ctx = {w.bosToken(), w.entityToken(entity),
                    w.hasColorToken()};
    std::vector<int> distractors = {myth};
    while (distractors.size() < 3) {
        const int d =
            sameFamilyDistractor(w, Relation::Color, truth, rng);
        if (d == myth
            || std::find(distractors.begin(), distractors.end(), d)
                   != distractors.end())
            continue;
        distractors.push_back(d);
    }
    return assembleChoices(std::move(ctx), truth, std::move(distractors),
                           rng);
}

McTask
makeWinoGrandeTask(const World &w, Rng &rng)
{
    const int entity = sampleHeadEntity(w, rng);
    const int verb = static_cast<int>(
        rng.uniformInt(static_cast<uint64_t>(w.spec().numVerbs)));
    McTask task;
    task.context = {w.bosToken(), w.entityToken(entity),
                    w.verbToken(verb)};
    const int g = w.genderOf(entity);
    task.choices = {{w.pronounToken(0)}, {w.pronounToken(1)}};
    task.gold = g;
    return task;
}

} // namespace

std::vector<McTask>
makeMcTasks(BenchmarkKind kind, const World &world, int n, uint64_t seed)
{
    require(kind != BenchmarkKind::Gsm8k,
            "makeMcTasks: GSM8K is generation-scored; use "
            "makeGsm8kTasks");
    require(n > 0, "makeMcTasks: n must be positive");
    Rng rng(seed ^ (static_cast<uint64_t>(kind) * 0x9E3779B9ULL));
    std::vector<McTask> tasks;
    tasks.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        switch (kind) {
          case BenchmarkKind::ArcEasy:
            tasks.push_back(makeFactTask(world, rng, /*head=*/true,
                                         /*sameFamily=*/false));
            break;
          case BenchmarkKind::ArcChallenge:
            tasks.push_back(makeFactTask(world, rng, true, true));
            break;
          case BenchmarkKind::HellaSwag:
            tasks.push_back(makeHellaSwagTask(world, rng));
            break;
          case BenchmarkKind::Mmlu:
            // Mixed domains over all entities (tail included) plus
            // arithmetic every fourth item.
            if (i % 4 == 3)
                tasks.push_back(makeArithmeticTask(world, rng));
            else
                tasks.push_back(makeFactTask(world, rng, /*head=*/false,
                                             /*sameFamily=*/true));
            break;
          case BenchmarkKind::TruthfulQa:
            tasks.push_back(makeTruthfulQaTask(world, rng));
            break;
          case BenchmarkKind::WinoGrande:
            tasks.push_back(makeWinoGrandeTask(world, rng));
            break;
          case BenchmarkKind::Gsm8k:
            break; // unreachable
        }
    }
    return tasks;
}

std::vector<GenTask>
makeGsm8kTasks(const World &world, int n, uint64_t seed)
{
    require(n > 0, "makeGsm8kTasks: n must be positive");
    Rng rng(seed ^ 0xC0FFEEULL);
    CorpusGenerator gen(world, seed ^ 0xFEEDULL);
    std::vector<GenTask> tasks;
    tasks.reserve(static_cast<size_t>(n));
    const int nn = world.spec().numNumbers;
    for (int i = 0; i < n; ++i) {
        GenTask task;
        task.prompt = {world.bosToken()};
        // Few-shot examples (4 shots, mirroring the paper's 8-shot
        // protocol scaled to our context length).
        for (int shot = 0; shot < 4; ++shot) {
            const int a = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(nn / 2)));
            const int b = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(nn - a)));
            TokenSeq s = gen.additionFact(a, b);
            task.prompt.insert(task.prompt.end(), s.begin(), s.end());
        }
        // Query: every third item is a harder two-step chain.
        if (i % 3 == 2) {
            const int third = nn / 3;
            const int a = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(third)));
            const int b = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(third)));
            const int c = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(third)));
            task.prompt.insert(task.prompt.end(),
                               {world.numberToken(a), world.plusToken(),
                                world.numberToken(b), world.plusToken(),
                                world.numberToken(c),
                                world.equalsToken()});
            task.expected = {world.numberToken(a + b + c)};
        } else {
            const int a = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(nn / 2)));
            const int b = static_cast<int>(
                rng.uniformInt(static_cast<uint64_t>(nn - a)));
            task.prompt.insert(task.prompt.end(),
                               {world.numberToken(a), world.plusToken(),
                                world.numberToken(b),
                                world.equalsToken()});
            task.expected = {world.numberToken(a + b)};
        }
        tasks.push_back(std::move(task));
    }
    return tasks;
}

} // namespace lrd
