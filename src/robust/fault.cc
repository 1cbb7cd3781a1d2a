#include "robust/fault.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "util/logging.h"

namespace lrd {

namespace {

/** An armed spec plus its process-wide occurrence counter. */
struct ArmedFault
{
    FaultSpec spec;
    std::atomic<int> hits{0};
};

struct FaultState
{
    /** Fast-path gate; release-stored after every spec mutation. */
    std::atomic<bool> armed{false};
    std::mutex mu; ///< Serializes setFault/clearFaults.
    std::vector<std::unique_ptr<ArmedFault>> specs;
};

FaultState &
state()
{
    static FaultState s;
    return s;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::Nan:
        return "nan";
    case FaultKind::NonConverge:
        return "nonconv";
    case FaultKind::Truncate:
        return "truncate";
    case FaultKind::BitFlip:
        return "bitflip";
    case FaultKind::Alloc:
        return "alloc";
    case FaultKind::Cancel:
        return "cancel";
    }
    return "unknown";
}

Result<FaultSpec>
parseFaultSpec(const std::string &text)
{
    const size_t c1 = text.find(':');
    if (c1 == std::string::npos || c1 == 0)
        return Status(StatusCode::InvalidArgument, "fault.parse",
                      "'" + text + "' is not <site>:<kind>[:<nth>]");
    const size_t c2 = text.find(':', c1 + 1);
    FaultSpec spec;
    spec.site = text.substr(0, c1);
    const std::string kind = c2 == std::string::npos
                                 ? text.substr(c1 + 1)
                                 : text.substr(c1 + 1, c2 - c1 - 1);
    bool known = false;
    for (FaultKind k :
         {FaultKind::Nan, FaultKind::NonConverge, FaultKind::Truncate,
          FaultKind::BitFlip, FaultKind::Alloc, FaultKind::Cancel}) {
        if (kind == faultKindName(k)) {
            spec.kind = k;
            known = true;
            break;
        }
    }
    if (!known)
        return Status(StatusCode::InvalidArgument, "fault.parse",
                      "unknown fault kind '" + kind
                          + "' (nan, nonconv, truncate, bitflip, alloc, "
                            "cancel)");
    if (c2 != std::string::npos) {
        const std::string nth = text.substr(c2 + 1);
        char *end = nullptr;
        const long n = std::strtol(nth.c_str(), &end, 10);
        if (nth.empty() || end == nullptr || *end != '\0' || n < 1)
            return Status(StatusCode::InvalidArgument, "fault.parse",
                          "nth must be a positive integer, got '" + nth
                              + "'");
        spec.nth = static_cast<int>(n);
    }
    return spec;
}

void
setFault(const FaultSpec &spec)
{
    FaultState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto armed = std::make_unique<ArmedFault>();
    armed->spec = spec;
    s.specs.push_back(std::move(armed));
    s.armed.store(true, std::memory_order_release);
}

void
clearFaults() // lrd-lint: allow(dead-symbol) test hook: FaultAt.FiresExactlyOnNthOccurrence
{
    FaultState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.armed.store(false, std::memory_order_release);
    s.specs.clear();
}

void
initFaultsFromEnv()
{
    const char *env = std::getenv("LRD_FAULT");
    if (env == nullptr || *env == '\0')
        return;
    const std::string all(env);
    size_t start = 0;
    while (start <= all.size()) {
        const size_t comma = all.find(',', start);
        const std::string one =
            all.substr(start, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - start);
        if (!one.empty()) {
            Result<FaultSpec> spec = parseFaultSpec(one);
            if (!spec.ok())
                fatal("LRD_FAULT: " + spec.status().toString());
            setFault(spec.value());
            inform(strCat("fault injection armed: ", spec.value().site, ":",
                          faultKindName(spec.value().kind), ":",
                          spec.value().nth));
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
}

bool
faultInjectionEnabled() // lrd-lint: allow(dead-symbol) test hook: FaultAt.FiresExactlyOnNthOccurrence
{
    return state().armed.load(std::memory_order_acquire);
}

const std::vector<FaultSiteInfo> &
registeredFaultSites()
{
    static const std::vector<FaultSiteInfo> sites = {
        {"jacobi", "nonconv,cancel",
         "Jacobi eigensolver sweep loop (src/linalg)"},
        {"model.block", "nan,cancel",
         "Transformer block forward pass (src/model)"},
        {"eval.item", "alloc,cancel",
         "Per-item benchmark scoring (src/eval)"},
        {"train.step", "cancel",
         "Top of a trainer optimizer step (src/train)"},
        {"dse.batch", "cancel",
         "Top of a DSE candidate batch (src/dse)"},
        {"ckpt.write", "alloc,truncate,bitflip,cancel",
         "Checkpoint serialization and atomic write (src/robust)"},
        {"ckpt.read", "alloc,cancel",
         "Checkpoint load and validation (src/robust)"},
        {"serve.admit", "alloc,cancel",
         "Request admission into the serve queue (src/serve)"},
        {"serve.batch", "nan,cancel",
         "Top of a serve batch execution (src/serve)"},
        {"serve.respond", "alloc,cancel",
         "Response delivery back to the client (src/serve)"},
    };
    return sites;
}

bool
faultAt(const char *site, FaultKind kind)
{
    FaultState &s = state();
    if (!s.armed.load(std::memory_order_acquire))
        return false;
    static Counter *fired =
        MetricsRegistry::instance().counter("robust.faultsInjected");
    bool hit = false;
    for (const auto &armed : s.specs) {
        if (armed->spec.kind != kind || armed->spec.site != site)
            continue;
        const int n =
            armed->hits.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n == armed->spec.nth)
            hit = true;
    }
    if (hit)
        fired->inc();
    return hit;
}

} // namespace lrd
