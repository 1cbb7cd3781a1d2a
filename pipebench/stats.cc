#include "stats.h"

#include <algorithm>

namespace pipebench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

TimingSummary
summarize(std::vector<double> samples)
{
    TimingSummary s;
    s.n = static_cast<int64_t>(samples.size());
    s.p50 = median(samples);
    s.tail = s.p50;
    std::sort(samples.begin(), samples.end());
    // Nearest rank of percentile p is ceil(p * n / 100); the samples
    // beyond it are the n - rank above that position.
    for (int p = 99; p >= 50; --p) {
        const int64_t rank = (p * s.n + 99) / 100;
        if (rank >= 1 && s.n - rank >= 10) {
            s.tail = samples[static_cast<size_t>(rank - 1)];
            s.tailPercentile = p;
            break;
        }
    }
    return s;
}

} // namespace pipebench
