/**
 * @file
 * Thread-lane identity shared by logging and the observability layer.
 *
 * A "lane" is a small integer naming the calling thread: 0 for the
 * main/posting thread (and any external thread), 1..N-1 for the
 * thread-pool workers. The pool assigns lanes at worker startup via
 * setWorkerLane(); everything below the pool in the layering (log
 * prefixes, metric shards, trace buffers) reads workerLane() without
 * depending on lrd_parallel.
 */

#ifndef LRD_UTIL_WORKER_LANE_H
#define LRD_UTIL_WORKER_LANE_H

namespace lrd {

/** Lane of the calling thread: 0 unless setWorkerLane() was called. */
int workerLane();

/** Assign this thread's lane; called once per pool worker at spawn. */
void setWorkerLane(int lane);

} // namespace lrd

#endif // LRD_UTIL_WORKER_LANE_H
