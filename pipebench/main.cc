/**
 * @file
 * pipebench: whole-pipeline benchmark of the lrd library.
 *
 *   pipebench prepare
 *       Train (first call) or load the tiny-llama checkpoint into
 *       $LRD_CACHE_DIR and export it for timed runs.
 *   pipebench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                 [--spans <file>] [--digest-dir <dir>] [--source <id>]
 *       Run one workload. The report goes to stdout; its last line is
 *       one JSON object {"correct", "attempted", "failed", "metrics"}.
 *       --trace 0 gives the end-to-end metrics, --trace 1 the
 *       per-layer ones. Exits 1 when a correctness check fails.
 *
 * pipebench/run.py builds the binary, prepares the checkpoint and
 * passes these arguments; see README.md.
 */

#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/manifest.h"
#include "parallel/thread_pool.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: pipebench prepare\n"
                 "       pipebench run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "                     [--spans <file>] [--digest-dir "
                 "<dir>] [--source <id>]\n"
                 "workloads:");
    for (const std::string &w : pipebench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    if (s == nullptr || *s < '0' || *s > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0';
}

/** CPUs this process may run on (what `nproc` prints). */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return lrd::hardwareConcurrency();
    return CPU_COUNT(&set);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "prepare" && argc == 2) {
        pipebench::prepareCheckpoint();
        return 0;
    }
    if (cmd != "run")
        return usage();

    pipebench::RunOptions opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    std::string source = "unknown";
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        uint64_t n = 0;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed" && parseUnsigned(value, n)) {
            opts.seed = n;
            haveSeed = true;
        } else if (flag == "--seconds" && parseUnsigned(value, n) && n > 0
                   && n <= 3600) {
            opts.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace" && parseUnsigned(value, n) && n <= 1) {
            opts.traced = n == 1;
            haveTrace = true;
        } else if (flag == "--spans") {
            opts.spansPath = value;
        } else if (flag == "--digest-dir") {
            opts.digestDir = value;
        } else if (flag == "--source") {
            source = value;
        } else {
            std::fprintf(stderr, "pipebench: bad argument %s %s\n",
                         flag.c_str(), value);
            return usage();
        }
    }
    if (argc % 2 != 0 || opts.workload.empty() || !haveSeed || !haveSeconds
        || !haveTrace)
        return usage();

    // Timing a debug or unoptimized build measures the wrong program.
    const lrd::RunManifest manifest = lrd::captureRunManifest();
    if (std::strcmp(PIPEBENCH_BUILD_TYPE, "Release") != 0
        || manifest.buildType != "Release") {
        std::fprintf(stderr,
                     "pipebench: refusing a %s build (library: %s); "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PIPEBENCH_BUILD_TYPE, manifest.buildType.c_str());
        return 2;
    }
    // Ladder transitions and cache notes would drown the report.
    lrd::setLogLevel(lrd::LogLevel::Warn);

    const char *envThreads = std::getenv("LRD_THREADS");
    const std::string provenance = lrd::strCat(
        "nproc=", usableCpus(),
        " LRD_THREADS=", envThreads != nullptr ? envThreads : "(unset)",
        " pool_threads=", lrd::parallelWorkers(),
        " simd=", lrd::simd::levelName(lrd::simd::activeLevel()),
        " build=", PIPEBENCH_BUILD_TYPE, " compiler=\"", PIPEBENCH_COMPILER,
        "\" git=", manifest.gitSha, " source=", source, " cpu=\"",
        manifest.cpuModel, "\" clock=steady_clock(wall)");
    std::printf("# pipebench %s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.traced ? 1 : 0);
    std::printf("# provenance %s\n", provenance.c_str());
    std::fflush(stdout);
    opts.provenance = provenance;

    pipebench::RunOutcome out;
    try {
        out = pipebench::runWorkload(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pipebench: %s\n", e.what());
        return 1;
    }

    std::string metrics;
    for (const pipebench::Metric &m : out.metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        metrics += lrd::strCat(metrics.empty() ? "" : ", ", "\"", m.name,
                               "\": {\"value\": ", value, ", \"unit\": \"",
                               m.unit, "\"}");
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                out.problems.empty() ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), metrics.c_str());
    return out.problems.empty() ? 0 : 1;
}
