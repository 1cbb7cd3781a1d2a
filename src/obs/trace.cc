#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "metrics.h"
#include "util/logging.h"

namespace lrd {

namespace obsdetail {
std::atomic<bool> gTraceEnabled{false};
} // namespace obsdetail

using obsdetail::TraceEvent;

Tracer &
Tracer::instance()
{
    static Tracer *t = new Tracer;
    return *t;
}

void
Tracer::setEnabled(bool on)
{
    obsdetail::gTraceEnabled.store(on, std::memory_order_relaxed);
}

int64_t
Tracer::nowNs()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void
Tracer::record(const char *name, int64_t tsNs, int64_t durNs, double arg,
               bool hasArg)
{
    obsdetail::appendTraceEvent(TraceEvent{name, tsNs, durNs, arg, hasArg});
}

std::string
Tracer::toChromeJson() const
{
    std::ostringstream oss;
    oss << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

    bool first = true;
    int lastMetaLane = -1;
    obsdetail::forEachTraceRing([&](int lane,
                                    const std::vector<TraceEvent> &ring,
                                    uint64_t written) {
        // One metadata event per lane names the Perfetto track.
        if (lane != lastMetaLane) {
            lastMetaLane = lane;
            oss << (first ? "" : ",\n");
            first = false;
            oss << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << lane
                << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
                << (lane == 0 ? std::string("main")
                              : strCat("worker-", lane))
                << "\"}},\n"
                << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << lane
                << ", \"name\": \"thread_sort_index\", \"args\": "
                   "{\"sort_index\": "
                << lane << "}}";
        }
        const uint64_t n = std::min<uint64_t>(written, ring.size());
        for (uint64_t i = 0; i < n; ++i) {
            const TraceEvent &e = ring[static_cast<size_t>(i)];
            oss << (first ? "" : ",\n");
            first = false;
            char buf[64];
            oss << "{\"ph\": \"X\", \"pid\": 1, \"tid\": " << lane
                << ", \"name\": \"" << e.name << "\", \"ts\": ";
            std::snprintf(buf, sizeof(buf), "%.3f",
                          static_cast<double>(e.tsNs) / 1000.0);
            oss << buf << ", \"dur\": ";
            std::snprintf(buf, sizeof(buf), "%.3f",
                          static_cast<double>(e.durNs) / 1000.0);
            oss << buf;
            if (e.hasArg) {
                std::snprintf(buf, sizeof(buf), "%.17g", e.arg);
                oss << ", \"args\": {\"v\": " << buf << "}";
            }
            oss << "}";
        }
    });
    oss << "\n]";
    // Viewers ignore otherData; it tells a reader the timeline is cut.
    if (const int64_t dropped = droppedEvents(); dropped > 0)
        oss << ", \"otherData\": {\"droppedEvents\": " << dropped << "}";
    oss << "}\n";
    return oss.str();
}

std::string
Tracer::toCsv() const
{
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    // std::map keys by name: deterministic row order.
    std::map<std::string, const HistogramSnapshot *> rows;
    for (const auto &[name, hs] : snap.histograms)
        if (hs.count > 0 && name.rfind("span.", 0) == 0)
            rows[name.substr(5)] = &hs;

    std::ostringstream oss;
    oss << "name,count,total_us,min_us,max_us,mean_us\n";
    for (const auto &[name, hs] : rows) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s,%lld,%.3f,%.3f,%.3f,%.3f\n", name.c_str(),
                      static_cast<long long>(hs->count),
                      static_cast<double>(hs->sum) / 1000.0,
                      static_cast<double>(hs->min) / 1000.0,
                      static_cast<double>(hs->max) / 1000.0,
                      static_cast<double>(hs->sum) / 1000.0
                          / static_cast<double>(hs->count));
        oss << buf;
    }
    return oss.str();
}

int64_t
Tracer::droppedEvents() const
{
    int64_t dropped = 0;
    obsdetail::forEachTraceRing(
        [&](int, const std::vector<TraceEvent> &ring, uint64_t written) {
            if (written > ring.size())
                dropped += static_cast<int64_t>(written - ring.size());
        });
    return dropped;
}

} // namespace lrd
