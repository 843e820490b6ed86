#!/usr/bin/env python3
"""Perf gate: fail CI when a benchmark got much worse than the record.

Compares one or more fresh bench JSON reports against a committed baseline
and exits 1 if any matching row regressed by more than the threshold factor.
Two report kinds are understood (detected from the "bench" field):

  simspeed  (BENCH_SIMSPEED.json)  wall-clock simulator throughput; rows
            match on (solver, hostThreads) and gate on itersPerSec (higher
            is better). Noisy — the BEST rate per row across all fresh
            reports is used, and `saturated` rows (thread count above the
            machine's cores) are skipped.
  scaling   (BENCH_SCALING.json)   simulated-cycle pod sweeps from
            bench_fig5_strong_scaling / bench_fig6_weak_scaling; rows match
            on (figure, problem, ipus) and gate on totalCycles (lower is
            better). Simulated cycles are deterministic, so a tighter
            threshold than the simspeed default is appropriate (CI uses
            1.25).
  resilience (BENCH_RESILIENCE.json) bench_resilience's recovery ledger:
            verdicts, iterations, cycles and fault counts under injected
            faults. Deterministic, so there is no threshold: the fresh
            `results` must equal the committed ones exactly, and every row
            that differs is printed. A recovery change re-baselines on
            purpose.

Usage:
    check_bench_regression.py [--baseline BENCH_SIMSPEED.json]
                              [--threshold 2.0] fresh1.json [fresh2.json ...]

The threshold is deliberately loose: this is a ratchet against large
accidental regressions — a dropped fast path, a partitioner that stopped
being pod-aware — not a microbenchmark tracker. If a regression is
intentional, regenerate the baseline JSON and commit it.
"""

import argparse
import json
import sys
from pathlib import Path


def load_rows(path):
    """Returns {key: (direction, value, label)} for comparable result rows.

    direction is "higher" (bigger value is better) or "lower".
    """
    with open(path) as f:
        report = json.load(f)
    bench = report.get("bench", "simspeed")
    rows = {}
    for row in report.get("results", []):
        if bench == "scaling":
            key = ("scaling", row["figure"], row.get("problem", ""),
                   row["ipus"])
            label = (f"{row['figure']}/{row.get('problem', '?')} "
                     f"@ {row['ipus']} IPUs totalCycles")
            rows[key] = ("lower", float(row["totalCycles"]), label)
        else:
            if row.get("saturated"):
                continue
            key = ("simspeed", row["solver"], row["hostThreads"])
            label = f"{row['solver']} @ {row['hostThreads']} threads"
            rows[key] = ("higher", float(row["itersPerSec"]), label)
    return rows


def check_exact(baseline_path, fresh_paths):
    """Exact gate for deterministic ledgers; returns the exit code."""
    with open(baseline_path) as f:
        want = json.load(f)["results"]

    def key(row):
        return (row["solver"], row["scenario"])

    failed = False
    for path in fresh_paths:
        with open(path) as f:
            got = json.load(f).get("results", [])
        if got == want:
            print(f"ok        {path}: all {len(want)} rows equal the baseline")
            continue
        failed = True
        want_rows = {key(r): r for r in want}
        got_rows = {key(r): r for r in got}
        for k in sorted(set(want_rows) | set(got_rows)):
            if want_rows.get(k) == got_rows.get(k):
                continue
            print(f"DIFFERS   {path}: {k[0]}/{k[1]}")
            print(f"  baseline: {json.dumps(want_rows.get(k), sort_keys=True)}")
            print(f"  fresh:    {json.dumps(got_rows.get(k), sort_keys=True)}")
        if want_rows == got_rows:
            print(f"DIFFERS   {path}: same rows in a different order")

    if failed:
        print(f"\nresilience gate FAILED: results differ from "
              f"{baseline_path}. If the change is intentional, regenerate "
              f"the baseline JSON and commit it.")
        return 1
    print("\nresilience gate passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", nargs="+", help="fresh bench JSON files")
    ap.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_SIMSPEED.json"),
        help="committed baseline report (default: BENCH_SIMSPEED.json at "
             "the repo root)")
    ap.add_argument(
        "--threshold", type=float, default=2.0,
        help="max allowed regression factor vs baseline (default: 2.0)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        if json.load(f).get("bench") == "resilience":
            return check_exact(args.baseline, args.fresh)
    baseline = load_rows(args.baseline)
    if not baseline:
        print(f"error: no comparable rows in baseline {args.baseline}")
        return 1

    # Best observed value per row across all fresh reports (max for
    # higher-is-better rows, min for lower-is-better ones).
    best = {}
    for path in args.fresh:
        for key, (direction, value, _) in load_rows(path).items():
            if key not in best:
                best[key] = value
            elif direction == "higher":
                best[key] = max(best[key], value)
            else:
                best[key] = min(best[key], value)

    failed = False
    for key, (direction, base, label) in sorted(baseline.items()):
        got = best.get(key)
        if got is None:
            print(f"MISSING  {label}: row absent from fresh reports "
                  f"(baseline {base:.0f})")
            failed = True
            continue
        if direction == "higher":
            limit = base / args.threshold
            ok = got >= limit
            bound = f"floor {limit:.0f} = baseline/{args.threshold:g}"
        else:
            limit = base * args.threshold
            ok = got <= limit
            bound = f"ceiling {limit:.0f} = baseline*{args.threshold:g}"
        verdict = "ok" if ok else "REGRESSED"
        print(f"{verdict:<10}{label}: {got:.0f} vs baseline {base:.0f} "
              f"({bound})")
        if not ok:
            failed = True

    if failed:
        print(f"\nperf gate FAILED: worse than {args.threshold:g}x off the "
              f"committed baseline ({args.baseline}). If the regression is "
              f"intentional, regenerate the baseline JSON and commit it.")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
