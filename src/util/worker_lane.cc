#include "worker_lane.h"

namespace lrd {

namespace {
thread_local int tlLane = 0;
} // namespace

int
workerLane()
{
    return tlLane;
}

void
setWorkerLane(int lane)
{
    tlLane = lane >= 0 ? lane : 0;
}

} // namespace lrd
