#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "parallel/thread_pool.h"
#include "util/json.h"

namespace pipebench {

namespace {

/** Spans open on this thread, innermost last (implicit parents). */
thread_local std::vector<int64_t> tlsOpen;

} // namespace

SpanRecorder::SpanRecorder()
    : runs_{"process"}, origin_(std::chrono::steady_clock::now())
{
}

void
SpanRecorder::beginRun(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(label);
}

int64_t
SpanRecorder::open(const std::string &name, int64_t parent)
{
    const double now = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - origin_)
                           .count();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = parent;
    s.run = static_cast<int>(runs_.size()) - 1;
    s.lane = lrd::ThreadPool::workerIndex();
    s.startUs = now;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanRecorder::close(int64_t id)
{
    const double now = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - origin_)
                           .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].endUs = now;
}

std::vector<double>
SpanRecorder::durationsMs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name && s.endUs >= 0.0)
            out.push_back((s.endUs - s.startUs) / 1000.0);
    return out;
}

std::vector<SelfTime>
SpanRecorder::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<size_t>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<size_t>(spans_[i].parent)].push_back(i);

    std::map<std::string, SelfTime> byName;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endUs < 0.0)
            continue;
        // Children of a fan-out overlap in time: subtract the union
        // of their intervals, clipped to the parent, not their sum.
        std::vector<std::pair<double, double>> iv;
        for (size_t c : children[i]) {
            const Span &k = spans_[c];
            if (k.endUs >= 0.0)
                iv.emplace_back(std::max(k.startUs, s.startUs),
                                std::min(k.endUs, s.endUs));
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = s.startUs;
        for (const auto &[lo, hi] : iv) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        SelfTime &row = byName[s.name];
        row.name = s.name;
        row.calls += 1;
        row.totalMs += (s.endUs - s.startUs) / 1000.0;
        row.selfMs += (s.endUs - s.startUs - covered) / 1000.0;
    }
    std::vector<SelfTime> rows;
    for (auto &[name, row] : byName)
        rows.push_back(row);
    return rows;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &provenance) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\"otherData\": {\"provenance\": %s},\n",
                 lrd::jsonQuote(provenance).c_str());
    std::fprintf(f, " \"traceEvents\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double end = s.endUs >= 0.0 ? s.endUs : s.startUs;
        const std::string name = lrd::jsonQuote(s.name);
        const std::string run =
            lrd::jsonQuote(runs_[static_cast<size_t>(s.run)]);
        std::fprintf(f,
                     "%s\n  {\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %lld, \"parent\": %lld, \"run\": %d, "
                     "\"run_label\": %s}}",
                     i == 0 ? "" : ",", name.c_str(), s.lane, s.startUs,
                     end - s.startUs, static_cast<long long>(s.id),
                     static_cast<long long>(s.parent), s.run, run.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name)
    : ScopedSpan(rec, name, tlsOpen.empty() ? -1 : tlsOpen.back())
{
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name, int64_t parent)
    : rec_(rec)
{
    if (rec_ == nullptr)
        return;
    id_ = rec_->open(name, parent);
    tlsOpen.push_back(id_);
}

ScopedSpan::~ScopedSpan()
{
    if (rec_ == nullptr)
        return;
    tlsOpen.pop_back();
    rec_->close(id_);
}

} // namespace pipebench
