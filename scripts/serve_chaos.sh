#!/usr/bin/env bash
# Chaos soak for the serving layer. Rotates an injected fault through
# every serve.* site/kind pair, interrupts an open-loop run mid-load
# with a real SIGINT, rejects malformed serve/loadgen flags, and checks
# the cross-thread determinism of the response vector — asserting, for
# every scenario, that the server never deadlocks (every run finishes),
# drains gracefully, and exits with the documented code:
#
#   0  clean run                      3  cancelled (signal / injected)
#   1  malformed flag (usage text)    7  response delivery unavailable
#
# Usage: scripts/serve_chaos.sh [build-dir]
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
    echo "serve_chaos: FAIL — $*" >&2
    exit 1
}

# Every chaos target below must be a documented injection site, or
# this script rots silently when sites are renamed.
faults_table="$("${lrdtool}" faults)"
for site in serve.admit serve.batch serve.respond; do
    grep -q "${site}" <<<"${faults_table}" \
        || fail "site ${site} missing from 'lrdtool faults'"
done
echo "serve_chaos: all serve.* sites registered"

# Rotation: each site/kind pair, expected exit code alongside. A
# cancel anywhere must drain as exit 3; an injected delivery failure
# must surface as exit 7; recoverable faults must still finish clean.
run_case() {
    local spec="$1" want="$2"
    local got=0
    LRD_FAULT="${spec}" "${lrdtool}" serve --requests=16 --queue=8 \
        --batch=2 --retries=2 >/dev/null 2>&1 || got=$?
    [[ "${got}" == "${want}" ]] \
        || fail "LRD_FAULT=${spec}: exit ${got}, want ${want}"
    echo "serve_chaos: LRD_FAULT=${spec} -> exit ${got} (ok)"
}

run_case "serve.admit:alloc:2" 0    # shed + client retry recovers
run_case "serve.admit:cancel:2" 3
run_case "serve.batch:nan:2" 0      # poisoned item, run still drains
run_case "serve.batch:cancel:2" 3
run_case "serve.respond:alloc:2" 0  # one failure; delivery retry recovers
# Three consecutive delivery failures exhaust the responder's retry
# budget: the request settles Unavailable and the run exits 7.
run_case "serve.respond:alloc:2,serve.respond:alloc:3,serve.respond:alloc:4" 7
run_case "serve.respond:cancel:2" 3

# Malformed flags: values are digits only, >= 1 for --queue/--batch/
# --retries/--deadline/--requests/--tenants and >= 0 for --backoff/
# --fallback-rank/--gap/--seed. Anything else exits 1 with the usage
# text instead of running with a half-parsed value.
bad_flag() {
    local got=0 out
    out="$("${lrdtool}" "$@" 2>&1)" || got=$?
    [[ "${got}" == "1" ]] || fail "lrdtool $*: exit ${got}, want 1"
    grep -q "^usage: lrdtool" <<<"${out}" \
        || fail "lrdtool $*: no usage text"
    echo "serve_chaos: lrdtool $* -> exit 1 (ok)"
}

bad_flag serve --batch=4x
bad_flag serve --fallback-rank=x
bad_flag serve --retries=0
bad_flag serve --tenants=-2
bad_flag serve --queue=0
bad_flag serve --deadline=
bad_flag serve --requests=+8
bad_flag serve --seed=99999999999
bad_flag loadgen --gap=-1
bad_flag loadgen --backoff=2.5
# Unknown flags, including --gap outside loadgen, exit 1 too: a typo
# must not silently leave a setting at its default.
bad_flag loadgen --request=8
bad_flag serve --gap=1

# A real SIGINT mid-load: stop admitting, drain (a batch the signal
# interrupted settles as cancelled), exit 3. --foreground makes
# timeout signal lrdtool alone; without it timeout also signals its
# own process group, lrdtool can see a second SIGINT, and a second
# signal force-exits 130. --preserve-status forwards lrdtool's own exit
# code; 124/137 would mean the drain wedged until timeout gave up.
got=0
timeout --foreground --preserve-status -s INT -k 30 2 \
    "${lrdtool}" loadgen --requests=100000 --queue=32 >/dev/null 2>&1 \
    || got=$?
[[ "${got}" == "3" ]] \
    || fail "SIGINT mid-load: exit ${got}, want 3 (cancelled)"
echo "serve_chaos: SIGINT mid-load -> exit 3 (graceful drain)"

# Determinism: the response vector (ids, outcomes, scores, settle
# ticks) must be bitwise identical at any LRD_THREADS.
crc_at() {
    LRD_THREADS="$1" "${lrdtool}" serve --requests=32 --queue=8 \
        --batch=4 --fallback-rank=2 2>/dev/null \
        | sed -n 's/^responses *crc32 //p'
}
crc1="$(crc_at 1)"
[[ -n "${crc1}" ]] || fail "no response digest in serve output"
for threads in 4 8; do
    crc="$(crc_at "${threads}")"
    [[ "${crc}" == "${crc1}" ]] \
        || fail "response digest differs: ${crc1} (1 thread) vs" \
                "${crc} (${threads} threads)"
done
echo "serve_chaos: response digest ${crc1} identical at 1/4/8 threads"

echo "serve_chaos: OK"
