#include "schedules.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace lrd {

const std::vector<Table4Row> &
paperTable4()
{
    static const std::vector<Table4Row> kTable = {
        {6.0, {3, 30}},
        {9.0, {3, 18, 32}},
        {15.0, {3, 9, 15, 21, 27}},
        {21.0, {5, 9, 13, 17, 21, 25, 29}},
        {33.0, {3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 32}},
        {48.0, {1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29,
                31}},
        {60.0, {2, 4, 6, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21,
                23, 25, 27, 29, 31}},
        {75.0, {2, 4, 6, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                21, 22, 23, 24, 25, 26, 27, 28, 29, 30}},
        {84.0, {1, 3, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}},
        {96.0, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
                31, 32}},
    };
    return kTable;
}

std::vector<int>
table4Layers0Based(const Table4Row &row)
{
    std::vector<int> out;
    out.reserve(row.layers1Based.size());
    for (int l : row.layers1Based)
        out.push_back(l - 1);
    return out;
}

std::vector<int>
spreadSchedule(int nLayers, int count)
{
    require(nLayers >= 1, "spreadSchedule: nLayers must be >= 1");
    require(count >= 0 && count <= nLayers, "spreadSchedule: count ", count,
            " out of range for ", nLayers, " layers");
    if (count == 0)
        return {};

    // Preferred interior candidates (insight: the first two and last
    // layers are the most decomposition-sensitive).
    std::vector<int> interior;
    for (int l = 2; l < nLayers - 1; ++l)
        interior.push_back(l);

    std::vector<int> picked;
    if (count <= static_cast<int>(interior.size())) {
        // Evenly spaced picks from the interior (insight: spread the
        // decomposed layers as far apart as possible).
        const auto m = static_cast<double>(interior.size());
        for (int i = 0; i < count; ++i) {
            const auto idx = static_cast<size_t>(
                std::min(m - 1.0, std::floor((i + 0.5) * m / count)));
            picked.push_back(interior[idx]);
        }
        std::sort(picked.begin(), picked.end());
        picked.erase(std::unique(picked.begin(), picked.end()),
                     picked.end());
        // Rounding collisions: fill with unused interior layers.
        for (int l : interior) {
            if (static_cast<int>(picked.size()) >= count)
                break;
            if (std::find(picked.begin(), picked.end(), l)
                == picked.end())
                picked.push_back(l);
        }
    } else {
        // The interior alone is not enough: add sensitive layers back
        // in order of increasing sensitivity (last, second, first).
        // For very shallow models the fallback entries can coincide,
        // so skip anything already picked.
        picked = interior;
        const std::vector<int> fallback = {nLayers - 1, 1, 0};
        for (int l : fallback) {
            if (static_cast<int>(picked.size()) >= count)
                break;
            if (l >= 0 && l < nLayers
                && std::find(picked.begin(), picked.end(), l)
                       == picked.end())
                picked.push_back(l);
        }
    }
    std::sort(picked.begin(), picked.end());
    picked.resize(static_cast<size_t>(count));
    return picked;
}

DecompConfig
scheduleForReduction(const ModelConfig &cfg, double targetReduction)
{
    require(targetReduction >= 0.0 && targetReduction <= 1.0,
            "scheduleForReduction: target must be in [0, 1]");
    if (targetReduction == 0.0)
        return DecompConfig::identity();
    const DecompConfig oneLayer = DecompConfig::allTensors(cfg, {0}, 1);
    const double perLayer = oneLayer.parameterReduction(cfg);
    int count = static_cast<int>(std::lround(targetReduction / perLayer));
    count = std::max(1, std::min<int>(count, static_cast<int>(cfg.nLayers)));
    return DecompConfig::allTensors(
        cfg, spreadSchedule(static_cast<int>(cfg.nLayers), count), 1);
}

} // namespace lrd
