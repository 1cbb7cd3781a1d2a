#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON artifacts.

Compares a freshly recorded bench_kernels JSON against the checked-in
baseline (BENCH_kernels.json). Only `_median` aggregates are compared
(scripts/run_bench_kernels.sh records 3 repetitions exactly so the
median exists), and each benchmark gets a noise band derived from its
recorded coefficient of variation: a fresh median is a regression when

    fresh > baseline * (1 + max(threshold, cv_margin * cv))

Context gating: the two files must agree on the host- and
build-identifying context fields (lrd_simd, lrd_build_type,
lrd_threads, num_cpus, library_build_type). A mismatch means the
numbers are not comparable (different machine class, pool size or an
unoptimized build) — the gate reports SKIPPED and exits 0 so CI stays
advisory, unless --force insists on comparing anyway. Every mismatched
key is named on stderr so a skip is always attributable; a key one
file lacks is a mismatch.

Baseline benchmarks missing from the fresh run FAIL the gate: a gated
benchmark silently dropping out (renamed, filtered, crashed) would
otherwise read as "no regressions". Pass --allow-missing for
intentionally filtered runs (e.g. the verify.sh quick pass).

Exit codes: 0 ok/skipped, 1 regression detected, 2 bad input.

Usage:
  scripts/check_bench.py --fresh fresh.json [--baseline BENCH_kernels.json]
  scripts/check_bench.py --self-test          # gate sanity, no bench run
"""

import argparse
import json
import sys

# Context fields that must match for a comparison to be meaningful.
CONTEXT_KEYS = ("lrd_simd", "lrd_build_type", "lrd_threads", "num_cpus",
                "library_build_type")


def load_medians(doc):
    """run_name -> (median real_time ns, cv) from a benchmark JSON."""
    medians = {}
    cvs = {}
    for entry in doc.get("benchmarks", []):
        name = entry.get("run_name", entry.get("name", ""))
        if entry.get("aggregate_name") == "median":
            medians[name] = float(entry["real_time"])
        elif entry.get("aggregate_name") == "cv":
            # cv aggregates report the ratio in real_time.
            cvs[name] = float(entry["real_time"])
    return {
        name: (time_ns, cvs.get(name, 0.0))
        for name, time_ns in medians.items()
    }


def context_mismatches(baseline, fresh):
    mismatches = []
    base_ctx = baseline.get("context", {})
    fresh_ctx = fresh.get("context", {})
    for key in CONTEXT_KEYS:
        if base_ctx.get(key) != fresh_ctx.get(key):
            mismatches.append(
                f"{key}: baseline={base_ctx.get(key)!r} "
                f"fresh={fresh_ctx.get(key)!r}")
    return mismatches


def compare(baseline, fresh, threshold, cv_margin, inflate):
    """Return (regressions, missing, rows) vs the baseline."""
    base = load_medians(baseline)
    new = load_medians(fresh)
    regressions = []
    missing = []
    rows = []
    for name in sorted(base):
        if name not in new:
            rows.append((name, base[name][0], None, None, "MISSING"))
            missing.append(name)
            continue
        base_ns, cv = base[name]
        fresh_ns = new[name][0] * inflate
        allowed = max(threshold, cv_margin * cv)
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + allowed:
            verdict = f"REGRESSION (> +{allowed * 100:.1f}%)"
            regressions.append(name)
        rows.append((name, base_ns, fresh_ns, ratio, verdict))
    for name in sorted(set(new) - set(base)):
        rows.append((name, None, new[name][0], None, "NEW"))
    return regressions, missing, rows


def print_rows(rows, out=sys.stdout):
    fmt = "{:<32} {:>14} {:>14} {:>8}  {}"
    print(fmt.format("benchmark", "baseline (ns)", "fresh (ns)",
                     "ratio", "verdict"), file=out)
    for name, base_ns, fresh_ns, ratio, verdict in rows:
        print(fmt.format(
            name,
            f"{base_ns:.0f}" if base_ns is not None else "-",
            f"{fresh_ns:.0f}" if fresh_ns is not None else "-",
            f"{ratio:.3f}" if ratio is not None else "-",
            verdict), file=out)


def run_gate(args):
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot load inputs: {e}", file=sys.stderr)
        return 2

    mismatches = context_mismatches(baseline, fresh)
    if mismatches and not args.force:
        # stderr, key by key: a skipped gate must be attributable from
        # the CI log alone, or gated benchmarks rot unnoticed.
        print("check_bench: SKIPPED (context mismatch, numbers not "
              "comparable):", file=sys.stderr)
        for m in mismatches:
            print(f"  mismatched context key {m}", file=sys.stderr)
        return 0

    regressions, missing, rows = compare(baseline, fresh, args.threshold,
                                         args.cv_margin, args.inflate)
    print_rows(rows)
    if missing and not args.allow_missing:
        print("check_bench: FAIL — baseline benchmark(s) absent from "
              "the fresh run (renamed, filtered, or crashed): "
              + ", ".join(missing), file=sys.stderr)
        print("  (pass --allow-missing for intentionally filtered runs)",
              file=sys.stderr)
        return 1
    if regressions:
        print(f"check_bench: FAIL — {len(regressions)} regression(s): "
              + ", ".join(regressions))
        return 1
    compared = sum(1 for r in rows if r[4].startswith(("ok", "REGR")))
    print(f"check_bench: OK ({compared} benchmarks within "
          f"+{args.threshold * 100:.0f}% / cv bands)")
    return 0


def self_test(args):
    """Gate sanity without running benchmarks: the baseline compared
    against itself must pass, against a synthetic 20% slowdown must
    fail, and a run that differs in any one context key must be
    reported not comparable, naming that key."""
    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot load baseline: {e}", file=sys.stderr)
        return 2
    clean, clean_missing, _ = compare(baseline, baseline, args.threshold,
                                      args.cv_margin, 1.0)
    slowed, _, _ = compare(baseline, baseline, args.threshold,
                           args.cv_margin, 1.2)
    if clean or clean_missing:
        print("check_bench: self-test FAIL — baseline vs itself "
              f"reported regressions: {clean} missing: {clean_missing}")
        return 1
    if not slowed:
        print("check_bench: self-test FAIL — synthetic 20% slowdown "
              "was not detected")
        return 1
    # A benchmark dropping out of the fresh run must be detected, or
    # gated benchmarks can vanish without failing the gate.
    truncated = json.loads(json.dumps(baseline))
    names = {e.get("run_name", e.get("name", ""))
             for e in truncated.get("benchmarks", [])}
    if names:
        dropped = sorted(names)[0]
        truncated["benchmarks"] = [
            e for e in truncated["benchmarks"]
            if e.get("run_name", e.get("name", "")) != dropped
        ]
        _, missing, _ = compare(baseline, truncated, args.threshold,
                                args.cv_margin, 1.0)
        if missing != [dropped]:
            print("check_bench: self-test FAIL — dropped benchmark "
                  f"{dropped!r} was not reported missing (got {missing})")
            return 1
    if context_mismatches(baseline, baseline):
        print("check_bench: self-test FAIL — baseline context does not "
              "match itself")
        return 1
    for key in CONTEXT_KEYS:
        other = json.loads(json.dumps(baseline))
        ctx = other.setdefault("context", {})
        ctx[key] = f"{ctx.get(key)}-elsewhere"
        got = context_mismatches(baseline, other)
        if len(got) != 1 or not got[0].startswith(key + ":"):
            print(f"check_bench: self-test FAIL — a changed {key!r} was "
                  f"not the one mismatch reported (got {got})")
            return 1
    print("check_bench: self-test OK (identity passes, +20% synthetic "
          f"slowdown trips {len(slowed)} benchmarks, dropped benchmarks "
          f"are detected, each of {len(CONTEXT_KEYS)} context keys "
          "gates)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_kernels.json",
                        help="checked-in baseline JSON")
    parser.add_argument("--fresh", default=None,
                        help="freshly recorded JSON to gate")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="base allowed slowdown fraction")
    parser.add_argument("--cv-margin", type=float, default=2.0,
                        help="noise band: max(threshold, cv_margin*cv)")
    parser.add_argument("--inflate", type=float, default=1.0,
                        help="multiply fresh times (testing aid)")
    parser.add_argument("--force", action="store_true",
                        help="compare despite a context mismatch")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate baseline benchmarks absent from "
                             "the fresh run (filtered quick passes)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate itself, no fresh file")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test(args))
    if not args.fresh:
        parser.error("--fresh is required unless --self-test")
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
