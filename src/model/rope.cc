#include "rope.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "util/logging.h"

namespace lrd {

namespace {

// A table stops at kTableRows positions, below which libm's sin was
// checked odd and cos even bit for bit (at every angle of head dims 8
// to 128), and at kTableEntries (cos, sin) pairs.
constexpr int64_t kTableRows = 4096;
constexpr int64_t kTableEntries = int64_t{1} << 18;

/** cos and sin of position p's angle for pair d / 2 of a head,
 *  with the angle negated when `negate`. */
std::pair<float, float>
closedForm(int64_t p, int64_t d, int64_t headDim, bool negate)
{
    const double freq = std::pow(
        10000.0, -static_cast<double>(d) / static_cast<double>(headDim));
    double angle = static_cast<double>(p) * freq;
    if (negate)
        angle = -angle;
    return {static_cast<float>(std::cos(angle)),
            static_cast<float>(std::sin(angle))};
}

/** Rotate the pair (x, y) at `pair` by the angle with cosine c and
 *  sine s. */
void
rotate(float *pair, float c, float s)
{
    const float x = pair[0];
    const float y = pair[1];
    pair[0] = x * c - y * s;
    pair[1] = x * s + y * c;
}

} // namespace

RopeTable::RopeTable(int64_t rows, int64_t headDim)
    : rows_(rows), headDim_(headDim)
{
    const int64_t half = headDim / 2;
    cos_.resize(static_cast<size_t>(rows * half));
    sin_.resize(static_cast<size_t>(rows * half));
    for (int64_t p = 0; p < rows; ++p) {
        for (int64_t d = 0; d < headDim; d += 2) {
            const auto at = static_cast<size_t>(p * half + d / 2);
            std::tie(cos_[at], sin_[at]) = closedForm(p, d, headDim, false);
        }
    }
}

const RopeTable &
RopeTable::shared(int64_t maxSeq, int64_t headDim)
{
    require(maxSeq > 0 && headDim > 0 && headDim % 2 == 0,
            "RopeTable: bad shape (", maxSeq, ", ", headDim, ")");
    const int64_t rows =
        std::min({maxSeq, kTableRows, kTableEntries / (headDim / 2)});
    static std::mutex mu;
    static std::map<std::pair<int64_t, int64_t>,
                    std::unique_ptr<const RopeTable>>
        tables;
    const std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<const RopeTable> &slot = tables[{rows, headDim}];
    if (!slot)
        slot.reset(new RopeTable(rows, headDim));
    return *slot;
}

void
RopeTable::apply(Tensor &qk, int64_t startPos, bool inverse,
                 int64_t heads) const
{
    require(startPos >= 0, "RopeTable::apply: negative start position ",
            startPos);
    const int64_t n = qk.dim(0);
    const int64_t half = headDim_ / 2;
    const int64_t width = heads * headDim_;
    for (int64_t i = 0; i < n; ++i) {
        const int64_t p = startPos + i;
        float *row = qk.data() + i * width;
        if (p >= rows_) {
            // Past the table: the closed form, at the negated angle to
            // invert.
            for (int64_t h = 0; h < heads; ++h) {
                float *head = row + h * headDim_;
                for (int64_t d = 0; d < headDim_; d += 2) {
                    const auto [c, s] = closedForm(p, d, headDim_, inverse);
                    rotate(head + d, c, s);
                }
            }
            continue;
        }
        const float *cs = cos_.data() + p * half;
        const float *sn = sin_.data() + p * half;
        for (int64_t h = 0; h < heads; ++h) {
            float *head = row + h * headDim_;
            for (int64_t d = 0; d < headDim_; d += 2) {
                // Over the tabled angles sin is odd and cos even bit
                // for bit, so negating the sine is exactly rotating by
                // the negated angle.
                rotate(head + d, cs[d / 2],
                       inverse ? -sn[d / 2] : sn[d / 2]);
            }
        }
    }
}

} // namespace lrd
