#!/usr/bin/env python3
"""Compare two sets of approx_bench runs against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py BASE CHANGE [--spec BENCHMARK.json]

BASE and CHANGE are directories searched recursively for results.json
files written by approx_bench (or benchmark/run.py, which keeps them under
build-bench/results/).  Runs on each side are ordered by start time and
paired in that order, so run the two commits alternately: base, change,
change, base, ...  For every metric x workload present on both sides the
table shows each side's median and quartiles and the change's win share
over the pairs, then a verdict by the pair rule:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base's own
              quartile spread, in the better direction;
  regressed   the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's quartile spread exceeds the bound, so a shift
              within it cannot be told from noise (unless every change
              run beats, or loses to, every base run);
  same        none of the above;
  few-pairs   fewer than 10 pairs: nothing is claimed.

per_layer metrics have no bound: they get the verdict "info", with their
quartiles and win share for the record.
Exit status is 1 when any metric regressed, else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(root):
    """Full-size runs under root, oldest first, keyed by mode."""
    runs = {"e2e": [], "trace": []}
    for path in sorted(Path(root).rglob("results.json")):
        doc = json.loads(path.read_text())
        if not doc.get("smoke") and doc.get("mode") in runs:
            runs[doc["mode"]].append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d.get("started_at", 0))
    return runs


def values(runs, workload, metric):
    out = []
    for doc in runs:
        w = doc.get("workloads", {}).get(workload)
        if w is None:
            continue
        m = w.get("metrics", {}).get(metric)
        if m is not None and m.get("value") is not None:
            out.append(m["value"])
    return out


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (float("nan"),) * 3
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(base, change, better, bound):
    """(verdict, pairs, win share); bound None marks a per_layer metric."""
    pairs = min(len(base), len(change))
    b = base[:pairs]
    c = change[:pairs]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
    share = wins / pairs if pairs else 0.0
    if bound is None:
        return "info", pairs, share
    if pairs < MIN_PAIRS:
        return "few-pairs", pairs, share
    bq1, bmed, bq3 = quartiles(b)
    cmed = statistics.median(c)
    spread = bq3 - bq1
    worse_by = sign * (bmed - cmed) / abs(bmed) if bmed else 0.0
    if worse_by > bound:
        return "regressed", pairs, share
    all_better = min(sign * y for y in c) > max(sign * x for x in b)
    all_worse = max(sign * y for y in c) < min(sign * x for x in b)
    if share >= WIN_SHARE and sign * (cmed - bmed) > spread:
        return "improved", pairs, share
    if bmed and spread / abs(bmed) > bound and not (all_better or all_worse):
        return "unresolved", pairs, share
    return "same", pairs, share


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--spec", default=str(Path(__file__).resolve().parent.parent
                                          / "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    base = load_runs(args.base)
    change = load_runs(args.change)
    if not any(base.values()) or not any(change.values()):
        print("compare.py: no full-size results.json on one side", file=sys.stderr)
        return 2

    print(f"{'workload':20s} {'metric':36s} {'base q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>6s} verdict")
    regressed = False
    for w in [w["name"] for w in spec["workloads"]]:
        for mode, metrics in (("e2e", spec["end_to_end"]),
                              ("trace", spec["per_layer"])):
            b_docs = [d for d in base[mode] if w in d.get("workloads", {})]
            c_docs = [d for d in change[mode] if w in d.get("workloads", {})]
            first = {b["started_at"] < c["started_at"]
                     for b, c in zip(b_docs, c_docs)}
            if len(first) == 1 and min(len(b_docs), len(c_docs)) >= 2:
                print(f"compare.py: warning: {w} ({mode}) runs did not "
                      "alternate which side ran first", file=sys.stderr)
            for m in metrics:
                b = values(b_docs, w, m["name"])
                c = values(c_docs, w, m["name"])
                if not b or not c:
                    continue
                v, pairs, share = verdict(b, c, m["better"], m.get("bound"))
                regressed = regressed or v == "regressed"
                bq, cq = quartiles(b), quartiles(c)
                print(f"{w:20s} {m['name']:36s} "
                      f"{'/'.join(f'{x:.4g}' for x in bq):>30s} "
                      f"{'/'.join(f'{x:.4g}' for x in cq):>30s} {share:>6.0%} "
                      f"{v} ({pairs} pairs)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
