#include "memprobe.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

namespace lrd {

namespace {

/** "VmRSS:    123 kB" -> bytes; -1 when the key is not this line. */
int64_t
parseStatusLine(const char *line, const char *key)
{
    const size_t keyLen = std::strlen(key);
    if (std::strncmp(line, key, keyLen) != 0)
        return -1;
    long long kb = 0;
    if (std::sscanf(line + keyLen, " %lld", &kb) != 1)
        return -1;
    return static_cast<int64_t>(kb) * 1024;
}

/** One thread's counts. Only the owning thread writes them (relaxed
 *  load + store); the atomics make tensorArenaStats()' reads
 *  race-free. Cache-line aligned so no two threads share a line. */
struct alignas(64) ArenaCell
{
    std::atomic<int64_t> allocCount{0};
    std::atomic<int64_t> allocBytes{0};
    std::atomic<int64_t> freedBytes{0};
};

/** Every cell ever made, behind one mutex; cold paths only. */
struct ArenaState
{
    std::mutex mu;
    std::vector<ArenaCell *> cells; ///< All ever created; never freed.
    std::vector<ArenaCell *> free;  ///< Released by exited threads.
    /** Records made after a thread released its cell, from any
     *  thread: the one cell updated with atomic adds. */
    ArenaCell late;
};

ArenaState &
state()
{
    // Leaked: tensors owned by function-local statics (the model
    // cache) destruct after main, and their accounting must still
    // find the state.
    static ArenaState *s = new ArenaState; // lrd-lint: allow(hot-path-alloc) lazy singleton
    return *s;
}

// Trivially destructible, so still readable while the thread's
// thread-locals are being destroyed.
thread_local ArenaCell *tCell = nullptr;
thread_local bool tReleased = false;

/** Hands the thread's cell back on thread exit for the next thread
 *  to reuse; later records on this thread go to the late cell. */
struct CellRelease
{
    ~CellRelease()
    {
        ArenaState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        s.free.push_back(tCell); // lrd-lint: allow(hot-path-alloc) once per thread exit
        tCell = nullptr;
        tReleased = true;
    }
};

/** A thread's first record: take a released cell or make one, and
 *  arm its release. Out of line to keep the per-record path short. */
[[gnu::noinline]] ArenaCell *
acquireCell()
{
    {
        ArenaState &s = state();
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.free.empty()) {
            s.cells.push_back(new ArenaCell); // lrd-lint: allow(hot-path-alloc) one cell per thread, first record only
            tCell = s.cells.back();
        } else {
            tCell = s.free.back();
            s.free.pop_back();
        }
    }
    thread_local CellRelease release;
    (void)release;
    return tCell;
}

/** The calling thread's cell; null once released at thread exit. */
inline ArenaCell *
myCell()
{
    if (tCell != nullptr || tReleased) [[likely]]
        return tCell;
    return acquireCell();
}

/** Single-writer add: no read-modify-write instruction. */
inline void
cellAdd(std::atomic<int64_t> &cell, int64_t n)
{
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

} // namespace

ProcMemSample
sampleProcMem()
{
    ProcMemSample out;
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return out;
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
        int64_t v = parseStatusLine(line, "VmRSS:");
        if (v >= 0)
            out.rssBytes = v;
        v = parseStatusLine(line, "VmHWM:");
        if (v >= 0)
            out.peakRssBytes = v;
        if (out.rssBytes > 0 && out.peakRssBytes > 0)
            break;
    }
    std::fclose(f);
    return out;
}

void
tensorArenaRecordAlloc(int64_t bytes)
{
    if (ArenaCell *c = myCell()) {
        cellAdd(c->allocCount, 1);
        cellAdd(c->allocBytes, bytes);
        return;
    }
    ArenaCell &late = state().late;
    late.allocCount.fetch_add(1, std::memory_order_relaxed);
    late.allocBytes.fetch_add(bytes, std::memory_order_relaxed);
}

void
tensorArenaRecordFree(int64_t bytes)
{
    if (ArenaCell *c = myCell()) {
        cellAdd(c->freedBytes, bytes);
        return;
    }
    state().late.freedBytes.fetch_add(bytes, std::memory_order_relaxed);
}

TensorArenaStats
tensorArenaStats()
{
    TensorArenaStats out;
    const auto addCell = [&out](const ArenaCell &c) {
        out.allocCount += c.allocCount.load(std::memory_order_relaxed);
        out.allocBytes += c.allocBytes.load(std::memory_order_relaxed);
        out.freedBytes += c.freedBytes.load(std::memory_order_relaxed);
    };
    ArenaState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const ArenaCell *c : s.cells)
        addCell(*c);
    addCell(s.late);
    out.liveBytes = out.allocBytes - out.freedBytes;
    return out;
}

} // namespace lrd
