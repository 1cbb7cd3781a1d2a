#include "robust/recovery.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"
#include "util/logging.h"

namespace lrd {

namespace {

struct PolicyState
{
    std::mutex mu;
    RobustPolicy policy;
    bool initialized = false;
};

PolicyState &
policyState()
{
    static PolicyState s;
    return s;
}

thread_local bool tlHasFault = false;
thread_local Status tlFault;

/** Parse a strictly positive double, or -1 on failure. */
double
parseFraction(const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end == nullptr || *end != '\0' || v < 0.0
        || v > 1.0 || !std::isfinite(v))
        return -1.0;
    return v;
}

} // namespace

Result<RobustPolicy>
parseRobustPolicy(const std::string &text)
{
    RobustPolicy p;
    const size_t c1 = text.find(':');
    const std::string mode =
        c1 == std::string::npos ? text : text.substr(0, c1);
    std::string rest =
        c1 == std::string::npos ? std::string() : text.substr(c1 + 1);

    if (mode == "strict") {
        p.mode = RobustMode::Strict;
        if (!rest.empty())
            return Status(StatusCode::InvalidArgument, "robust.parse",
                          "strict takes no arguments");
        return p;
    }
    if (mode == "degrade") {
        p.mode = RobustMode::Degrade;
        if (!rest.empty()) {
            const double budget = parseFraction(rest);
            if (budget < 0.0)
                return Status(StatusCode::InvalidArgument, "robust.parse",
                              "degrade budget must be a fraction in "
                              "[0, 1], got '" + rest + "'");
            p.failureBudget = budget;
        }
        return p;
    }
    return Status(StatusCode::InvalidArgument, "robust.parse",
                  "unknown mode '" + mode
                      + "' (strict, degrade[:<budget>])");
}

RobustPolicy
robustPolicy()
{
    PolicyState &s = policyState();
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.initialized) {
        s.initialized = true;
        const char *env = std::getenv("LRD_ROBUST");
        if (env != nullptr && *env != '\0') {
            Result<RobustPolicy> parsed = parseRobustPolicy(env);
            if (!parsed.ok())
                fatal("LRD_ROBUST: " + parsed.status().toString());
            s.policy = parsed.value();
        }
    }
    return s.policy;
}

void
setRobustPolicy(const RobustPolicy &policy) // lrd-lint: allow(dead-symbol) test hook: Resume.EvaluatorDegradesPoisonedItemsWithinBudget
{
    PolicyState &s = policyState();
    std::lock_guard<std::mutex> lock(s.mu);
    s.policy = policy;
    s.initialized = true;
}

int64_t
failureBudgetItems(const RobustPolicy &policy, int64_t n)
{
    if (policy.mode == RobustMode::Strict)
        return 0;
    return static_cast<int64_t>(
        std::ceil(policy.failureBudget * static_cast<double>(n)));
}

void
enforceFailureBudget(const char *site, int64_t numFailed, int64_t total,
                     const Status &example)
{
    if (numFailed == 0)
        return;
    static Counter *degraded =
        MetricsRegistry::instance().counter("robust.degradedItems");
    degraded->add(numFailed);
    const RobustPolicy policy = robustPolicy();
    const int64_t budget = failureBudgetItems(policy, total);
    if (numFailed > budget) {
        const std::string spec =
            policy.mode == RobustMode::Strict
                ? std::string("strict")
                : strCat("degrade:", policy.failureBudget);
        // Carries the structured code through the unwind so lrdtool
        // can exit with the documented degraded-past-budget code.
        throwStatus(Status(
            StatusCode::ResourceExhausted, site,
            strCat(numFailed, " of ", total,
                   " items failed, exceeding the failure budget of ",
                   budget, " (LRD_ROBUST=", spec, "); first: ",
                   example.toString())));
    }
    warn(strCat(site, ": degraded ", numFailed, " of ", total,
                " items (budget ", budget, "); first: ",
                example.toString()));
}

void
noteNumericFault(Status status)
{
    if (tlHasFault || status.ok())
        return;
    tlFault = std::move(status);
    tlHasFault = true;
}

Status
takeNumericFault()
{
    if (!tlHasFault)
        return Status();
    tlHasFault = false;
    Status s = std::move(tlFault);
    tlFault = Status();
    return s;
}

int64_t
firstNonFinite(const float *p, int64_t n)
{
    // A float is NaN or Inf exactly when its exponent bits are all
    // ones. OR-ing one such flag per element is an integer reduction
    // with no order to keep, so it vectorizes without -ffast-math.
    constexpr uint32_t kExponentBits = 0x7F800000U;
    uint32_t anyBad = 0;
    for (int64_t i = 0; i < n; ++i) {
        uint32_t bits = 0;
        std::memcpy(&bits, p + i, sizeof(bits));
        anyBad |=
            static_cast<uint32_t>((bits & kExponentBits) == kExponentBits);
    }
    if (anyBad == 0)
        return -1;
    for (int64_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return i;
    return -1;
}

void
reportNonFinite(const char *site, int64_t layer, int64_t index)
{
    static Counter *nonfinite =
        MetricsRegistry::instance().counter("robust.nonfinite");
    nonfinite->inc();
    Status status(StatusCode::NonFinite, site,
                  strCat("first non-finite value in layer ", layer,
                         " at flat index ", index));
    if (robustPolicy().mode == RobustMode::Strict)
        fatal(status.toString());
    noteNumericFault(std::move(status));
}

} // namespace lrd
