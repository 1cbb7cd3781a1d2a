#!/usr/bin/env bash
# Chaos soak for the DSE sweep. Runs serial reference sweeps at several
# thread counts, then sweeps SIGKILLed mid-sweep and resumed from their
# checkpoints, and asserts:
#
#   - the serial sweep explores exactly |RANKS| x 8 candidates (the
#     --ranks list replaces the default grid rather than adding to it),
#   - the --out result file is BYTE-IDENTICAL at LRD_THREADS=1/4/8,
#   - a sweep killed with SIGKILL and rerun with --resume writes the
#     same bytes as the uninterrupted one, and leaves no *.tmp beside
#     its checkpoint,
#   - at least one kill landed mid-sweep (a resumed run restored some
#     but not all candidates), so the soak cannot pass by killing only
#     finished runs,
#   - unknown flags, malformed numeric flags and positional numbers,
#     and --ranks values that cannot make a shrinking candidate exit 1,
#   - an LRD_* variable lrdtool does not read, or a malformed
#     LRD_ROBUST or LRD_THREADS, exits 1 naming the variable before
#     loading a model or starting a thread,
#   - a metrics file that cannot be written (LRD_STATS=/dev/full)
#     warns and is never reported as written.
#
# Usage: scripts/dse_chaos.sh [build-dir]
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
    echo "dse_chaos: FAIL — $*" >&2
    exit 1
}

workdir="$(mktemp -d "${TMPDIR:-/tmp}/lrd_dse_chaos.XXXXXX")"
trap 'rm -rf "${workdir}"' EXIT
# A private model cache: the first sweep trains the stand-in once, every
# later run reuses the same cached weights.
export LRD_CACHE_DIR="${workdir}/cache"

# The kills below target the sweep's cancellation point, which must be
# a documented injection site, or this script rots silently when sites
# are renamed.
grep -q "dse.batch" <<<"$("${lrdtool}" faults)" \
    || fail "site dse.batch missing from 'lrdtool faults'"

# Unknown flags, malformed numeric flags and malformed positional
# numbers must exit 1 with usage and say why, never start a sweep or a
# training run. Nothing here may load (or train) the model.
bad_args() {
    local want="$1" got=0 out
    shift
    out="$("${lrdtool}" "$@" 2>&1)" || got=$?
    [[ "${got}" == "1" ]] || fail "lrdtool $*: exit ${got}, want 1"
    grep -q "^usage: lrdtool" <<<"${out}" \
        || fail "lrdtool $*: no usage text"
    grep -q -- "${want}" <<<"${out}" \
        || fail "lrdtool $*: output lacks '${want}'"
}
for flag in --rank=1 --supervise=4 --shard=0/2 --merge=2; do
    bad_args "dse: unknown flag ${flag%%=*}" dse "${flag}"
done
bad_args "train: unknown flag --step" train --step=5
for bad in "dse --tasks=2x" "dse --tasks=abc" "dse --tasks=0" \
           "dse --every=-1" "train --steps=abc" "train --steps=-5" \
           "train --log-every=x" "train --every=2x" "eval abc" \
           "profile llama2-7b -5" "schedule llama2-7b 2l" \
           "breakeven 4096 x11008"; do
    read -r -a args <<<"${bad}"
    bad_args ": bad " "${args[@]}"
done
# Typos and retired names (the rows below) and malformed values
# must not be silently ignored.
bad_env() {
    local var="$1" got=0 err
    err="$(env "${var}" "${lrdtool}" dse --ranks=1 2>&1 >/dev/null)" \
        || got=$?
    [[ "${got}" == "1" ]] || fail "${var} lrdtool dse: exit ${got}, want 1"
    grep -q -- "${var%%=*}" <<<"${err}" \
        || fail "${var} lrdtool dse: stderr does not name ${var%%=*}"
}
# A bad LRD_THREADS is rejected before the pool starts a thread.
for var in LRD_WATCHDOG=5 LRD_FUSED=0 LRD_DEADLINE=steps:3 LRD_THREAD=4 \
           LRD_ROBUST=retry LRD_ROBUST=bogus LRD_THREADS=4x LRD_THREADS=0 \
           LRD_THREADS=4097; do
    bad_env "${var}"
done
# A full disk shows up only when the stats file is flushed and closed.
# (Never point LRD_TRACE at /dev/full as root: that creates
# /dev/full.summary.csv.)
err="$(LRD_STATS=/dev/full "${lrdtool}" info tiny-llama 2>&1 >/dev/null)" \
    || true
grep -q "warn:" <<<"${err}" || fail "LRD_STATS=/dev/full: no warning"
if grep -q "wrote metrics" <<<"${err}"; then
    fail "LRD_STATS=/dev/full: reported as written"
fi
[[ ! -e "${LRD_CACHE_DIR}" ]] || fail "bad args loaded or trained a model"
echo "dse_chaos: unknown flags, malformed numbers and unknown or" \
    "malformed LRD_* variables exit 1; an unwritable LRD_STATS warns"

TASKS=8
EVERY=2
RANKS=1,2,3,4

# Serial references. The first run also warms the model cache. The
# result must be thread-count invariant.
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
echo "dse_chaos: serial result identical at 1/4/8 threads"

# The grid is |RANKS| x 8 layer counts of the tiny-llama stand-in.
num_ranks="$(tr ',' '\n' <<<"${RANKS}" | wc -l)"
want_explored=$((num_ranks * 8))
explored="$(sed -n 's/^explored *\([0-9]*\) candidates.*/\1/p' \
    "${workdir}/serial-t1.log")"
[[ "${explored}" == "${want_explored}" ]] \
    || fail "serial sweep explored '${explored}' candidates, want ${want_explored} (|RANKS| x 8)"
echo "dse_chaos: serial sweep explored ${explored} = |RANKS| x 8"

# Ranks that cannot make a valid, shrinking candidate on tiny-llama
# (35 is past its break-even, 65 above its width) fail before the
# sweep starts, naming the rank.
for rank in 35 65; do
    got=0
    out="$("${lrdtool}" dse --tasks="${TASKS}" --ranks="1,${rank}" 2>&1)" \
        || got=$?
    [[ "${got}" == "1" ]] || fail "dse --ranks=1,${rank}: exit ${got}, want 1"
    grep -q "candidate rank ${rank} " <<<"${out}" \
        || fail "dse --ranks=1,${rank}: error does not name rank ${rank}"
    if grep -q "^explored" <<<"${out}"; then
        fail "dse --ranks=1,${rank}: the sweep ran"
    fi
done
echo "dse_chaos: --ranks past break-even or width exit 1"

# SIGKILL each sweep as soon as its first checkpoint lands, resume it,
# and compare the resumed --out with the uninterrupted reference.
# sweep execs lrdtool, so run it in a subshell: `(sweep) &` makes $!
# the sweep itself, and the SIGKILL cannot miss it and leave it running
# beside its resume.
sweep() {
    LRD_THREADS="${threads}" exec "${lrdtool}" dse --tasks="${TASKS}" \
        --every="${EVERY}" --ranks="${RANKS}" --ckpt="${ckpt}" \
        --out="${out}" "$@"
}
mid_sweep=0
for threads in 1 4 8; do
    dir="${workdir}/resume-t${threads}"
    mkdir -p "${dir}"
    ckpt="${dir}/dse.ckpt"
    out="${dir}/out.bin"
    (sweep) >"${dir}/killed.log" 2>&1 &
    pid=$!
    while [[ ! -e "${ckpt}" ]] && kill -0 "${pid}" 2>/dev/null; do
        sleep 0.01
    done
    kill -KILL "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
    rm -f "${out}"

    (sweep --resume) >"${dir}/resumed.log" 2>&1 \
        || fail "resumed dse at ${threads} threads failed: $(cat "${dir}/resumed.log")"
    cmp -s "${workdir}/serial-t1.bin" "${out}" \
        || fail "resumed result (${threads} threads) differs from serial"
    tmps="$(find "${dir}" -name '*.tmp')"
    [[ -z "${tmps}" ]] || fail "temp files left beside the checkpoint: ${tmps}"

    # "dse: resumed <ckpt> with N of M candidates already evaluated"
    read -r restored total < <(sed -n \
        's/.*dse: resumed .* with \([0-9]*\) of \([0-9]*\) candidates.*/\1 \2/p' \
        "${dir}/resumed.log") || true
    echo "dse_chaos: ${threads} threads — resumed with" \
        "${restored:-no checkpoint} of ${total:-?} done, result == serial"
    if [[ -n "${restored:-}" && "${restored}" -gt 0 \
          && "${restored}" -lt "${total}" ]]; then
        mid_sweep=$((mid_sweep + 1))
    fi
    unset restored total
done
[[ "${mid_sweep}" -ge 1 ]] \
    || fail "no kill landed mid-sweep: every resume restored none or all candidates"

echo "dse_chaos: OK"
