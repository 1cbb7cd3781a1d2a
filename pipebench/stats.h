/**
 * @file
 * Order statistics for the benchmark's reports: medians of repeated
 * wall-clock measurements, and per-call timing summaries that give a
 * tail percentile only when the sample supports one.
 */

#ifndef PIPEBENCH_STATS_H
#define PIPEBENCH_STATS_H

#include <cstdint>
#include <vector>

namespace pipebench {

/** Median (mean of the two middle values for even n); 0 when empty. */
double median(std::vector<double> v);

/**
 * A per-call timing: the median, the highest whole percentile that
 * has at least ten samples beyond it (nearest-rank), and the sample
 * count. With fewer than 20 samples not even the median has ten
 * samples beyond it; the tail then repeats the median and
 * tailPercentile is 0.
 */
struct TimingSummary
{
    double p50 = 0.0;
    double tail = 0.0;
    int tailPercentile = 0;
    int64_t n = 0;
};

TimingSummary summarize(std::vector<double> samples);

} // namespace pipebench

#endif // PIPEBENCH_STATS_H
