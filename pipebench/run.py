#!/usr/bin/env python3
"""Build, prepare and run one workload of the lrd pipeline benchmark.

usage: python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It

1. configures and builds pipebench/ (the library sources under src/ plus
   the pipebench binary) as a Release build in .bench_build/pipebench,
   or under $CARGO_TARGET_DIR when that is set;
2. prepares the pretrained tiny-llama checkpoint in the benchmark's own
   cache, .bench_build/pipebench/lrd-cache (the first run trains it,
   about 40 s on 4 cores; later runs load it);
3. runs the workload with LRD_THREADS set to the number of usable CPUs
   and every other LRD_* variable removed, and checks that the result
   line names exactly the metrics BENCHMARK.json declares.

The report goes to stdout and its last line is the result JSON; build
and preparation logs go to stderr. The exit code is 0 only when every
correctness check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# A run measures for --seconds plus set-up; the slowest traced run
# (dse_sweep) adds about a minute. Stay inside a 180 s limit.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(1)


def step(cmd, env):
    """Run a build or preparation step with its output on stderr."""
    result = subprocess.run(cmd, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, check=False)
    if result.returncode != 0:
        fail(f"step failed (exit {result.returncode}): {' '.join(cmd)}")


def source_digest():
    """Hash of the library and benchmark sources, which key the digests
    earlier runs recorded (a changed program records new ones)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_result(line, spec, traced):
    """Problems with the result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line of the report is not JSON"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"result keys {sorted(result)}"]
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    have = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = []
    if set(have) != set(want):
        problems.append("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(set(want) - set(have))}, undeclared "
                        f"{sorted(set(have) - set(want))}")
    for name in set(have) & set(want):
        if have[name] != want[name]:
            problems.append(f"{name}: unit {have[name]}, declared "
                            f"{want[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources in {ROOT / 'src'}; run from the root "
             "of a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"no {spec_path}")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in 1..3600")

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build = build_root / "pipebench"
    build.mkdir(parents=True, exist_ok=True)

    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if not k.startswith("LRD_")}
    env["LRD_THREADS"] = str(nproc)
    env["LRD_CACHE_DIR"] = str(build / "lrd-cache")

    # Concurrent runs in one checkout build and prepare one at a time.
    with open(build / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build / "CMakeCache.txt").is_file():
            step(["cmake", "-S", str(HERE), "-B", str(build),
                  "-DCMAKE_BUILD_TYPE=Release"], env)
        step(["cmake", "--build", str(build), "-j", str(nproc)], env)
        step([str(build / "pipebench"), "prepare"], env)

    source = source_digest()
    cmd = [str(build / "pipebench"), "run",
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digest-dir", str(build / "digests" / source),
           "--source", source]
    if args.trace:
        spans = build / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else e.stdout or "")
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")

    lines = proc.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], spec, args.trace == 1)
    if not problems:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    # Never pass on a result line that disagrees with BENCHMARK.json.
    body = lines if proc.returncode != 0 else lines[:-1]
    sys.stdout.write("\n".join(body) + "\n")
    fail("; ".join(problems))


if __name__ == "__main__":
    main()
