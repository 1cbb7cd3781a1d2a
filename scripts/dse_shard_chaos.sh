#!/usr/bin/env bash
# Chaos soak for the sharded DSE supervisor. Runs serial reference
# sweeps at several thread counts, then supervised sharded sweeps
# whose shard children are SIGKILLed mid-sweep, and asserts:
#
#   - the serial sweep explores exactly |RANKS| x 8 candidates (the
#     --ranks list replaces the default grid rather than adding to it),
#   - the merged result file is BYTE-IDENTICAL to the serial one at
#     LRD_THREADS=1/4/8 (kills and all),
#   - at least one kill landed mid-sweep (some run retried a shard), so
#     the soak cannot pass by killing only finished runs,
#   - recomputed work stays below one checkpoint interval per retry
#     (resume really resumes; nothing is double-counted),
#   - a clean supervised run recomputes nothing,
#   - bad --shard/--supervise arguments and malformed numeric train/dse
#     flags exit 1 with the usage text,
#   - a shard that keeps dying exhausts its retry budget and the
#     supervisor exits with the documented code 8.
#
# Usage: scripts/dse_shard_chaos.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
lrdtool="${build_dir}/tools/lrdtool"

if [[ ! -x "${lrdtool}" ]]; then
    echo "building lrdtool in ${build_dir}" >&2
    cmake -B "${build_dir}" -S "${repo_root}"
    cmake --build "${build_dir}" -j --target lrdtool
fi

fail() {
    echo "dse_shard_chaos: FAIL — $*" >&2
    exit 1
}

workdir="$(mktemp -d "${TMPDIR:-/tmp}/lrd_dse_chaos.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT
# A private model cache: the first run trains the stand-in once, every
# later run (and every shard child) reuses the same cached weights.
export LRD_CACHE_DIR="${workdir}/cache"

# Every chaos target below must be a documented injection site, or
# this script rots silently when sites are renamed.
faults_table="$("${lrdtool}" faults)"
for site in dse.shard.spawn dse.shard.merge dse.batch; do
    grep -q "${site}" <<<"${faults_table}" \
        || fail "site ${site} missing from 'lrdtool faults'"
done
echo "dse_shard_chaos: all dse.shard.* sites registered"

# Malformed shard/supervise arguments and numeric flags must exit 1
# with usage, never start a sweep or a training run.
for bad in "dse --shard=3/2" "dse --shard=x/y" "dse --shard=0/0" \
           "dse --shard=1" "dse --supervise=0" "dse --supervise=9999" \
           "dse --supervise=2x" "dse --tasks=2x" "dse --tasks=abc" \
           "dse --tasks=0" "dse --every=-1" "dse --merge=2x" \
           "dse --supervise=2 --retries=x" "dse --supervise=2 --backoff=1s" \
           "dse --supervise=2 --stale-secs=-5" "train --steps=abc" \
           "train --steps=-5" "train --log-every=x" "train --every=2x"; do
    read -r -a args <<<"${bad}"
    got=0
    out="$("${lrdtool}" "${args[@]}" --dir="${workdir}/never" 2>&1)" \
        || got=$?
    [[ "${got}" == "1" ]] || fail "lrdtool ${bad}: exit ${got}, want 1"
    grep -q "^usage: lrdtool" <<<"${out}" \
        || fail "lrdtool ${bad}: no usage text"
done
[[ ! -e "${workdir}/never" ]] || fail "bad args still created a dir"
echo "dse_shard_chaos: malformed shard and numeric train/dse args exit 1"

TASKS=8
EVERY=2
RANKS=1,2,3,4
SHARDS=4
RETRIES=3

# Serial references. The first run also warms the model cache so the
# supervised runs' children never race to train it. The serial result
# must itself be thread-count invariant.
for threads in 1 4 8; do
    LRD_THREADS="${threads}" "${lrdtool}" dse --tasks="${TASKS}" \
        --every="${EVERY}" --ranks="${RANKS}" \
        --out="${workdir}/serial-t${threads}.bin" \
        >"${workdir}/serial-t${threads}.log" 2>&1 \
        || fail "serial dse at ${threads} threads failed"
done
for threads in 4 8; do
    cmp -s "${workdir}/serial-t1.bin" "${workdir}/serial-t${threads}.bin" \
        || fail "serial result differs between 1 and ${threads} threads"
done
echo "dse_shard_chaos: serial result identical at 1/4/8 threads"

# The grid is |RANKS| x 8 layer counts of the tiny-llama stand-in.
num_ranks="$(tr ',' '\n' <<<"${RANKS}" | wc -l)"
want_explored=$((num_ranks * 8))
explored="$(sed -n 's/^explored *\([0-9]*\) candidates.*/\1/p' \
    "${workdir}/serial-t1.log")"
[[ "${explored}" == "${want_explored}" ]] \
    || fail "serial sweep explored '${explored}' candidates, want ${want_explored} (|RANKS| x 8)"
echo "dse_shard_chaos: serial sweep explored ${explored} = |RANKS| x 8"

# Supervised sweeps with shard children SIGKILLed mid-sweep. Two kill
# rounds per run; the supervisor must relaunch the victims, resume
# them from their checkpoints, and still merge bytes identical to the
# serial reference.
supervised_run() {
    local threads="$1" dir="$2" out="$3" log="$4"
    LRD_THREADS="${threads}" "${lrdtool}" dse \
        --supervise="${SHARDS}" --dir="${dir}" --tasks="${TASKS}" \
        --every="${EVERY}" --ranks="${RANKS}" \
        --retries="${RETRIES}" --backoff=20 --out="${out}" \
        >"${log}" 2>&1 &
    sup_pid=$!
}

total_retried=0
for threads in 1 4 8; do
    dir="${workdir}/shards-t${threads}"
    out="${workdir}/merged-t${threads}.bin"
    log="${workdir}/supervise-t${threads}.log"
    supervised_run "${threads}" "${dir}" "${out}" "${log}"
    # Kill random shard children while the sweep is in flight.
    for round in 1 2; do
        sleep 0.4
        kill -0 "${sup_pid}" 2>/dev/null || break
        pkill -KILL -P "${sup_pid}" -f -- "--shard=" 2>/dev/null || true
    done
    got=0
    wait "${sup_pid}" || got=$?
    [[ "${got}" == "0" ]] \
        || fail "supervised run (${threads} threads) exit ${got}, want 0: $(cat "${log}")"
    cmp -s "${workdir}/serial-t1.bin" "${out}" \
        || fail "merged result (${threads} threads) differs from serial"

    # Work accounting: recomputed evaluations are bounded by one
    # checkpoint interval per retry (a retry can only lose the work
    # between its last heartbeat and its missing checkpoint).
    recomputed="$(sed -n 's/^recomputed *//p' "${log}")"
    retried="$(sed -n 's/^retried *//p' "${log}")"
    [[ -n "${recomputed}" && -n "${retried}" ]] \
        || fail "rollup lines missing from supervisor output"
    bound=$((retried * EVERY))
    [[ "${recomputed}" -le "${bound}" ]] \
        || fail "recomputed ${recomputed} exceeds ${bound} (retried=${retried} x every=${EVERY})"
    echo "dse_shard_chaos: ${threads} threads — merged == serial," \
        "retried ${retried}, recomputed ${recomputed} <= ${bound}"
    total_retried=$((total_retried + retried))
done
# Every kill can miss when the shards finish before it lands; then the
# runs above checked nothing about crash recovery.
[[ "${total_retried}" -ge 1 ]] \
    || fail "no killed run retried a shard: every kill landed after the sweep finished"

# A clean supervised run (nobody killed) must recompute nothing.
dir="${workdir}/shards-clean"
out="${workdir}/merged-clean.bin"
log="${workdir}/supervise-clean.log"
supervised_run 4 "${dir}" "${out}" "${log}"
got=0
wait "${sup_pid}" || got=$?
[[ "${got}" == "0" ]] || fail "clean supervised run exit ${got}"
cmp -s "${workdir}/serial-t1.bin" "${out}" \
    || fail "clean merged result differs from serial"
recomputed="$(sed -n 's/^recomputed *//p' "${log}")"
[[ "${recomputed}" == "0" ]] \
    || fail "clean supervised run recomputed ${recomputed}, want 0"
echo "dse_shard_chaos: clean supervised run recomputed 0"

# A shard that dies on every attempt (inherited injected cancel at its
# first batch) exhausts the retry budget: documented exit code 8.
got=0
LRD_FAULT="dse.batch:cancel:1" "${lrdtool}" dse --supervise=2 \
    --dir="${workdir}/shards-budget" --tasks="${TASKS}" \
    --every="${EVERY}" --ranks="${RANKS}" --retries=1 --backoff=5 \
    >/dev/null 2>&1 || got=$?
[[ "${got}" == "8" ]] \
    || fail "retry-budget exhaustion: exit ${got}, want 8"
echo "dse_shard_chaos: exhausted retry budget -> exit 8"

echo "dse_shard_chaos: OK"
