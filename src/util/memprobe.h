/**
 * @file
 * Process memory accounting for the flight recorder: an OS-level RSS
 * probe and the tensor-arena byte counters.
 *
 * Two complementary views of memory:
 *
 * - sampleProcMem() reads /proc/self/status (VmRSS / VmHWM) — what
 *   the kernel actually charges the process, including code, stacks,
 *   allocator slack, and the model cache. Zeroes on non-Linux hosts.
 *   VmHWM is the exact resident high-water mark.
 * - The tensor arena counters track bytes owned by live Tensor
 *   objects. Tensor's constructors and destructor (src/tensor/) call
 *   tensorArenaRecordAlloc/Free; the counters live here in util
 *   (layer 0) so the telemetry sampler in src/obs/ (layer 1) can read
 *   them without an obs → tensor layering back-edge.
 *
 * Each thread records into its own cache-line-sized cell, written by
 * that thread alone with relaxed loads and stores (no atomic
 * read-modify-write, no line shared between pool workers), and
 * tensorArenaStats() sums every cell under a lock. A cell outlives
 * its thread and is reused by the next thread to start, so the totals
 * stay exact across pool resizes: a tensor built on one thread and
 * freed on another counts its bytes in and out. A record made after
 * the thread's cell was released (a static destroyed after main's
 * thread-locals) goes to one shared atomic cell. No high-water mark
 * is kept: per-thread cells cannot order their updates into one.
 */

#ifndef LRD_UTIL_MEMPROBE_H
#define LRD_UTIL_MEMPROBE_H

#include <cstdint>

namespace lrd {

/** Kernel-reported process memory at one instant. */
struct ProcMemSample
{
    int64_t rssBytes = 0;     ///< VmRSS: current resident set.
    int64_t peakRssBytes = 0; ///< VmHWM: resident-set high-water mark.
};

/** Read /proc/self/status; all-zero when unreadable (non-Linux). */
ProcMemSample sampleProcMem();

/** Cumulative + live byte accounting of Tensor storage. */
struct TensorArenaStats
{
    int64_t allocCount = 0; ///< Tensors ever constructed.
    int64_t allocBytes = 0; ///< Cumulative bytes allocated.
    int64_t freedBytes = 0; ///< Cumulative bytes released.
    int64_t liveBytes = 0;  ///< allocBytes - freedBytes.
};

/** Record `bytes` entering the arena (Tensor construction). */
void tensorArenaRecordAlloc(int64_t bytes);

/** Record `bytes` leaving the arena (Tensor destruction). */
void tensorArenaRecordFree(int64_t bytes);

/** Sum of every thread's cells; exact once the writers are quiet. */
TensorArenaStats tensorArenaStats();

} // namespace lrd

#endif // LRD_UTIL_MEMPROBE_H
