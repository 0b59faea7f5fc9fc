#!/usr/bin/env python3
"""Kernel perf gate: diff a fresh BENCH_kernels.json against the committed
baseline and fail on structural perf regressions.

Usage:
    bench_compare.py FRESH_JSON BASELINE_JSON

Checks (all machine-relative — absolute times are never compared, so the
gate is stable across runner hardware):

1. `all_identical` must be true in the fresh run: a parallel output that
   differs from the serial baseline is a determinism-contract violation.
2. matmul_tb serial time must stay within a ratio limit of matmul serial
   time: 1.5x for full-size runs, 2.0x for --quick runs (the quick
   matmul finishes in ~0.1ms, where scheduler noise swings the ratio by
   +-0.3; the unpacked cliff this gate exists to catch sits at ~4x, so
   the looser quick limit still catches it). The packed-B layout is what
   holds this ratio down; losing it (e.g. someone "simplifies" the
   transpose away) reintroduces the strided-read cliff.
3. matmul_ta_tall_64_64 serial time (the weight gradient dW = X^T dZ)
   must stay within TA_TALL_RATIO_MAX of matmul_tall_64_64 (X W, same
   FLOPs). Both are tall enough to spill out of L2 in either mode, so
   a k loop that re-streams the whole of X and dZ once per output
   block (~5x at 16k rows, ~7.6x at 64k) fails it; the k-blocked
   kernel sits near 1.3x.
4. For every kernel present in both files, the highest-thread-count
   speedup must not fall below SPEEDUP_KEEP of the baseline speedup.
   Applied only where the baseline itself scales (speedup >=
   SCALING_MIN): on few-core runners every speedup sits at ~1x inside
   noise, and gating there would be flaky rather than protective.

Only Python stdlib (json) — no third-party imports.
"""

import json
import sys

TB_RATIO_MAX_FULL = 1.5
TB_RATIO_MAX_QUICK = 2.0
TA_TALL_RATIO_MAX = 2.0
SPEEDUP_KEEP = 0.6
SCALING_MIN = 1.2


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return {k["name"]: k for k in doc.get("kernels", [])}, doc


def best_threads_sample(kernel):
    """The sample at the highest thread count, or None."""
    samples = kernel.get("parallel", [])
    return max(samples, key=lambda s: s["threads"]) if samples else None


def format_run_meta(label, doc):
    """One line of provenance for a mismatch report."""
    meta = doc.get("run_meta")
    if not isinstance(meta, dict):
        return f"  {label}: run_meta missing (pre-provenance artifact)"
    fields = ["git_sha", "build_type", "threads", "simd", "loader_workers"]
    parts = [f"{k}={meta.get(k, '?')}" for k in fields]
    return f"  {label}: " + " ".join(parts)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    fresh, fresh_doc = load(argv[1])
    baseline, baseline_doc = load(argv[2])
    failures = []

    if not fresh_doc.get("all_identical", False):
        failures.append(
            "fresh run reports all_identical=false: a parallel kernel "
            "output differs from its serial baseline")

    tb_limit = (TB_RATIO_MAX_QUICK if fresh_doc.get("quick", False)
                else TB_RATIO_MAX_FULL)
    ratio_gates = [
        ("matmul_tb", "matmul", tb_limit, "the packed-B path"),
        ("matmul_ta_tall_64_64", "matmul_tall_64_64", TA_TALL_RATIO_MAX,
         "the k-blocked weight-gradient path"),
    ]
    for slow, fast, limit, path in ratio_gates:
        if slow not in fresh or fast not in fresh:
            failures.append(f"fresh run is missing {fast}/{slow} kernels")
            continue
        ref = fresh[fast]["serial_ms"]
        got = fresh[slow]["serial_ms"]
        if ref > 0 and got > limit * ref:
            failures.append(
                f"{slow} serial {got:.4f}ms is {got / ref:.2f}x {fast} "
                f"serial {ref:.4f}ms (limit {limit}x): {path} has "
                "regressed")

    for name, base_kernel in sorted(baseline.items()):
        if name not in fresh:
            failures.append(f"kernel '{name}' present in baseline but "
                            "missing from fresh run")
            continue
        base_sample = best_threads_sample(base_kernel)
        fresh_sample = best_threads_sample(fresh[name])
        if base_sample is None or fresh_sample is None:
            continue
        base_speedup = base_sample["speedup"]
        if base_speedup < SCALING_MIN:
            continue  # baseline machine did not scale; ratio is noise
        floor = SPEEDUP_KEEP * base_speedup
        if fresh_sample["speedup"] < floor:
            failures.append(
                f"{name}: {fresh_sample['threads']}-thread speedup "
                f"{fresh_sample['speedup']:.2f}x fell below floor "
                f"{floor:.2f}x (baseline {base_speedup:.2f}x)")

    if failures:
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        # Provenance of both artifacts: a mismatch across different
        # machines, simd tiers, or build types is usually the runs being
        # incomparable, not a code regression.
        print("run_meta of compared artifacts:", file=sys.stderr)
        print(format_run_meta("fresh   ", fresh_doc), file=sys.stderr)
        print(format_run_meta("baseline", baseline_doc), file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({len(fresh)} kernels, "
          f"simd={fresh_doc.get('simd', '?')})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
