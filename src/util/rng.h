/**
 * @file
 * Deterministic pseudo-random number generation for the lrd library.
 *
 * Every stochastic component in the library (weight init, corpus
 * generation, benchmark task sampling) draws from an explicitly seeded
 * Rng so that experiments are bit-reproducible across runs.
 */

#ifndef LRD_UTIL_RNG_H
#define LRD_UTIL_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lrd {

/** Complete serializable Rng state (see Rng::state / Rng::setState). */
struct RngState
{
    std::array<uint64_t, 4> s{};
    bool hasCachedNormal = false;
    double cachedNormal = 0.0;
};

/**
 * Xoshiro256** pseudo-random generator seeded via SplitMix64.
 *
 * Chosen over std::mt19937 for speed, a tiny state, and a guaranteed
 * stable sequence across standard-library implementations.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; the seed is expanded via SplitMix64. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform float in [lo, hi). */
    float uniform(float lo, float hi);

    /** Uniform integer in [0, n) for n > 0. */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal variate (Box-Muller, cached second value). */
    double normal();

    /** Normal variate with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * Sample an index from an unnormalized non-negative weight vector.
     * @param weights Non-negative weights; at least one must be positive.
     */
    size_t categorical(const std::vector<double> &weights);

    /**
     * Snapshot / restore the full generator state, including the
     * Box-Muller cache, so a checkpointed pipeline resumes with a
     * bitwise-identical draw sequence.
     */
    RngState state() const;
    void setState(const RngState &state);

  private:
    uint64_t s_[4];
    bool hasCachedNormal_ = false;
    double cachedNormal_ = 0.0;
};

} // namespace lrd

#endif // LRD_UTIL_RNG_H
