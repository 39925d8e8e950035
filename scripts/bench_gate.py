#!/usr/bin/env python3
"""Regression gate: compare a bench JSON run against the checked-in baseline.

The baseline file holds every gated bench: a list of {bench, config, runs}
records under one schema tag, each run reduced to its label and result. The
candidate is gated against the baseline runs of its own bench, matched by
label. The gate fails when the baseline has no runs for the candidate's bench
or when any of those runs is absent from the candidate (either way the bench
silently lost coverage). For each matched run every headline result metric
is compared against a per-metric, direction-aware tolerance:

  total_ns / gc_ns / app_ns    fail only when the candidate is SLOWER than
                               baseline * (1 + tol); speedups always pass
  gc_bandwidth_mbps            fail only when it DROPS below
                               baseline * (1 - tol)
  gc_count / bytes_allocated   fail on any move beyond the tolerance in
                               either direction

Simulated results are deterministic per seed (the collector steps its GC
workers in simulated-clock order on one host thread), so the time and count
tolerances are tight.

Exit code 0 when every metric of every gated run is within tolerance, 1
otherwise.

Usage:
  bench_gate.py BASELINE.json CANDIDATE.json [--inject-regression PCT]
      --inject-regression PCT   self-test: inflate the candidate's time
                                metrics by PCT before gating
"""

import argparse
import json
import sys

SCHEMA = "nvmgc.bench.v2"

LOWER_IS_BETTER = {"total_ns", "gc_ns", "app_ns"}
HIGHER_IS_BETTER = {"gc_bandwidth_mbps"}
# Everything else (gc_count, bytes_allocated) is neutral: any move counts.

# The headline result metrics and their tolerances in percent. Two runs of
# one build agree exactly; the tolerances leave room only for small intended
# model changes.
TOLERANCE = {
    "total_ns": 2.0,
    "gc_ns": 2.0,
    "app_ns": 2.0,
    "gc_count": 0.0,
    "bytes_allocated": 1.0,
    "gc_bandwidth_mbps": 50.0,
}
RESULT_METRICS = tuple(TOLERANCE)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: cannot load: {e}")
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: expected schema {SCHEMA!r}, got {doc.get('schema')!r}")
    return doc


def check_metric(metric, base, cand, tol_pct):
    """Returns (ok, regression_pct) for one metric comparison."""
    if base == 0:
        return cand == 0, 0.0 if cand == 0 else float("inf")
    delta_pct = (cand - base) / base * 100.0
    if metric in LOWER_IS_BETTER:
        regression = max(0.0, delta_pct)
    elif metric in HIGHER_IS_BETTER:
        regression = max(0.0, -delta_pct)
    else:
        regression = abs(delta_pct)
    return regression <= tol_pct, regression


def gate(baseline_path, candidate_path, inject_pct):
    """Gates one candidate against its bench's baseline runs. True on pass."""
    base_doc = load(baseline_path)
    cand_doc = load(candidate_path)
    bench = cand_doc["bench"]
    base = {r["label"]: r["result"]
            for b in base_doc.get("benches", []) if b["bench"] == bench
            for r in b["runs"]}
    cand = {r["label"]: r["result"] for r in cand_doc["runs"]}
    if not base:
        print(f"bench_gate: FAIL: {baseline_path} has no runs for bench {bench!r}")
        return False

    if inject_pct is not None:
        factor = 1.0 + inject_pct / 100.0
        for result in cand.values():
            for metric in LOWER_IS_BETTER:
                result[metric] = result[metric] * factor

    missing = sorted(set(base) - set(cand))
    if missing:
        print(f"bench_gate: FAIL: {len(missing)} baseline run(s) absent from "
              f"candidate: {', '.join(missing[:5])}"
              + (" ..." if len(missing) > 5 else ""))
        return False
    extra = sorted(set(cand) - set(base))
    if extra:
        print(f"bench_gate: note: {len(extra)} candidate run(s) not in baseline "
              "(new coverage, not gated)")

    failures = []
    worst = {}  # metric -> worst regression pct seen.
    for label in sorted(base):
        for metric, tol_pct in TOLERANCE.items():
            b, c = base[label].get(metric), cand[label].get(metric)
            if b is None or c is None:
                failures.append((label, metric, "metric missing from result"))
                continue
            ok, regression = check_metric(metric, b, c, tol_pct)
            worst[metric] = max(worst.get(metric, 0.0), regression)
            if not ok:
                failures.append(
                    (label, metric,
                     f"baseline {b:.6g} -> candidate {c:.6g} "
                     f"(regression {regression:.1f}% > tolerance {tol_pct:.1f}%)"))

    print(f"bench_gate: {bench}: {len(base)} gated run(s)")
    for metric in sorted(worst):
        print(f"  {metric:<18} worst regression {worst[metric]:6.1f}% "
              f"(tolerance {TOLERANCE[metric]:.1f}%)")
    if failures:
        print(f"\nbench_gate: FAIL: {len(failures)} metric(s) out of tolerance")
        for label, metric, detail in failures[:20]:
            print(f"  {label}: {metric}: {detail}")
        if len(failures) > 20:
            print(f"  ... {len(failures) - 20} more")
        return False
    print("\nbench_gate: OK: all metrics within tolerance")
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="checked-in baseline JSON (all gated benches)")
    ap.add_argument("candidate", help="bench --json output to gate")
    ap.add_argument("--inject-regression", type=float, default=None, metavar="PCT",
                    help="self-test: inflate candidate time metrics by PCT "
                         "before gating (the gate must then fail)")
    args = ap.parse_args()
    return 0 if gate(args.baseline, args.candidate, args.inject_regression) else 1


if __name__ == "__main__":
    sys.exit(main())
