#include "rng.h"

#include <cmath>
#include <stdexcept>

namespace lrd {

namespace {

/** SplitMix64 step used for seeding. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

float
Rng::uniform(float lo, float hi)
{
    return lo + static_cast<float>(uniform()) * (hi - lo);
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    if (n == 0)
        throw std::invalid_argument("Rng::uniformInt: n must be > 0");
    // Rejection sampling to remove modulo bias.
    const uint64_t threshold = (0 - n) % n;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

size_t
Rng::categorical(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        if (w < 0.0)
            throw std::invalid_argument("Rng::categorical: negative weight");
        total += w;
    }
    if (total <= 0.0)
        throw std::invalid_argument("Rng::categorical: all weights zero");
    double target = uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0)
            return i;
    }
    return weights.size() - 1;
}

RngState
Rng::state() const
{
    RngState st;
    for (size_t i = 0; i < st.s.size(); ++i)
        st.s[i] = s_[i];
    st.hasCachedNormal = hasCachedNormal_;
    st.cachedNormal = cachedNormal_;
    return st;
}

void
Rng::setState(const RngState &state)
{
    for (size_t i = 0; i < state.s.size(); ++i)
        s_[i] = state.s[i];
    hasCachedNormal_ = state.hasCachedNormal;
    cachedNormal_ = state.cachedNormal;
}

} // namespace lrd
