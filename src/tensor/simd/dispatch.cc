/**
 * @file
 * Kernel-table resolution: cpuid feature detection, the LRD_SIMD
 * override, and the process-wide active level.
 */

#include "tensor/simd/simd.h"

#include <atomic>
#include <cstdlib>

#include "obs/metrics.h"
#include "tensor/simd/kernels.h"
#include "util/logging.h"

namespace lrd::simd {

namespace {

/** Active level as an int; -1 until first resolution. */
std::atomic<int> gActiveLevel{-1};

constexpr int kNumLevels = 4;

bool
cpuSupports(Level level)
{
    switch (level) {
    case Level::Scalar:
        return true;
    case Level::Neon:
        // NEON is architecturally guaranteed where the kernel compiles.
        return kMicroKernelNeon != nullptr;
    case Level::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        return kMicroKernelAvx2 != nullptr &&
               __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    case Level::Avx512:
#if defined(__x86_64__) || defined(__i386__)
        return kMicroKernelAvx512 != nullptr &&
               __builtin_cpu_supports("avx512f");
#else
        return false;
#endif
    }
    return false;
}

/** Dispatch table rows, indexed by Level. Unsupported rows keep a
 *  nullptr kernel and can never become active. */
const KernelTable &
tableFor(Level level)
{
    static const KernelTable tables[kNumLevels] = {
        {Level::Scalar, "scalar", &microKernelScalar},
        {Level::Neon, "neon", kMicroKernelNeon},
        {Level::Avx2, "avx2", kMicroKernelAvx2},
        {Level::Avx512, "avx512", kMicroKernelAvx512},
    };
    return tables[static_cast<int>(level)];
}

/** Highest supported level, honoring the LRD_SIMD pin. */
Level
resolveInitialLevel()
{
    const char *env = std::getenv("LRD_SIMD");
    if (env != nullptr && *env != '\0') {
        Level pinned;
        if (!parseLevel(env, &pinned))
            fatal(strCat("LRD_SIMD: unknown level '", env,
                         "' (expected scalar, neon, avx2 or avx512)"));
        if (!cpuSupports(pinned))
            fatal(strCat("LRD_SIMD=", env,
                         ": this CPU/build cannot run that level"));
        return pinned;
    }
    for (Level l : {Level::Avx512, Level::Avx2, Level::Neon})
        if (cpuSupports(l))
            return l;
    return Level::Scalar;
}

void
noteDispatch(Level level)
{
    MetricsRegistry::instance()
        .counter(strCat("simd.dispatch.", levelName(level)))
        ->inc();
}

Level
ensureResolved()
{
    const int loaded = gActiveLevel.load(std::memory_order_acquire);
    if (loaded >= 0)
        return static_cast<Level>(loaded);
    // Thread-safe one-time resolution; concurrent first calls agree
    // because resolveInitialLevel() is a pure function of env + cpuid.
    static const Level initial = [] {
        const Level l = resolveInitialLevel();
        gActiveLevel.store(static_cast<int>(l), std::memory_order_release);
        noteDispatch(l);
        return l;
    }();
    return initial;
}

} // namespace

const char *
levelName(Level level)
{
    return tableFor(level).name;
}

const KernelTable &
activeKernels()
{
    return tableFor(ensureResolved());
}

Level
activeLevel()
{
    return ensureResolved();
}

void
setActiveLevel(Level level)
{
    require(cpuSupports(level), "setActiveLevel: this CPU/build cannot run '",
            levelName(level), "'");
    ensureResolved(); // keep first-use resolution ordering simple
    gActiveLevel.store(static_cast<int>(level), std::memory_order_release);
    noteDispatch(level);
}

std::vector<Level>
availableLevels()
{
    std::vector<Level> out;
    for (Level l : {Level::Scalar, Level::Neon, Level::Avx2, Level::Avx512})
        if (cpuSupports(l))
            out.push_back(l);
    return out;
}

bool
levelSupported(Level level) // lrd-lint: allow(dead-symbol) test hook: SkinnyGemmTransB.MatchesLaneDotBitwise
{
    return cpuSupports(level);
}

bool
parseLevel(const std::string &name, Level *out)
{
    for (Level l : {Level::Scalar, Level::Neon, Level::Avx2, Level::Avx512})
        if (name == levelName(l)) {
            *out = l;
            return true;
        }
    return false;
}

MicroKernelFn
microKernelForLevel(Level level) // lrd-lint: allow(dead-symbol) test hook: SimdDispatch.PerLevelLookupMatchesDispatchTable
{
    return cpuSupports(level) ? tableFor(level).microKernel : nullptr;
}

} // namespace lrd::simd
