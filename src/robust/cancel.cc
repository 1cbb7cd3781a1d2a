#include "robust/cancel.h"

#include <atomic>

#include "util/logging.h"

namespace lrd {

namespace {

/**
 * The process-wide cancel token. Everything the signal handler
 * touches is a lock-free atomic.
 */
struct CancelState
{
    std::atomic<int> cause{0}; ///< CancelCause; 0 = not cancelled.
    std::atomic<const char *> site{""};
};

CancelState &
state()
{
    static CancelState s;
    return s;
}

} // namespace

const char *
cancelCauseName(CancelCause cause)
{
    switch (cause) {
    case CancelCause::None:
        return "none";
    case CancelCause::Signal:
        return "signal";
    case CancelCause::Test:
        return "test";
    }
    return "unknown";
}

bool
cancelRequested()
{
    return state().cause.load(std::memory_order_relaxed) != 0;
}

void
requestCancel(CancelCause cause, const char *site)
{
    if (cause == CancelCause::None)
        return;
    CancelState &s = state();
    int expected = 0;
    // First cause wins. Async-signal-safe: CAS + store only — no
    // locks, no allocation, no logging.
    if (s.cause.compare_exchange_strong(expected, static_cast<int>(cause),
                                        std::memory_order_acq_rel))
        s.site.store(site, std::memory_order_release);
}

CancelCause
cancelCause()
{
    return static_cast<CancelCause>(
        state().cause.load(std::memory_order_acquire));
}

const char *
cancelSite()
{
    return state().site.load(std::memory_order_acquire);
}

Status
cancelStatus(const char *site)
{
    const CancelCause cause = cancelCause();
    if (cause == CancelCause::None)
        return Status();
    return Status(StatusCode::Cancelled, site,
                  strCat("cancellation requested (", cancelCauseName(cause),
                         ") at ", cancelSite()));
}

void
clearCancelRequest() // lrd-lint: allow(dead-symbol) test hook: Cancel.SignalHandlerRequestsCancellation
{
    CancelState &s = state();
    s.cause.store(0, std::memory_order_release);
    s.site.store("", std::memory_order_release);
}

} // namespace lrd
