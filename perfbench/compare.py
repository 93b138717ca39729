#!/usr/bin/env python3
"""Compare a parent and a changed checkout on the service benchmark.

    python3 perfbench/compare.py --parent DIR --change DIR [--out runs.json]
    python3 perfbench/compare.py --load runs.json

Runs `perfbench/run.py` in both checkouts in 10 alternating pairs on
every workload of BENCHMARK.json, each run run_seconds long (pair i uses
seed 1000 + i; even pairs run the parent first, odd pairs the change),
and reports per workload and end-to-end metric each side's median and
quartiles. Verdicts follow the choosing-metrics rules:

  gain        the change wins at least 9 of the 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  REGRESSION  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's spread (IQR / median) is wider than the
              bound, unless every change run beats every parent run;
  same        none of the above.

More failed ops on the change is flagged, and voids any gain on that
workload; so is any run that exited non-zero or reported
correct: false. --out saves the raw runs, --load re-analyses them.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAIRS = 10
GAIN_WINS = 9
FIRST_SEED = 1000


def run_once(checkout, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"seed": seed, "exit": done.returncode, "result": result}


def collect(parent, change):
    runs = {"parent": {}, "change": {}}
    for w in (w["name"] for w in SPEC["workloads"]):
        runs["parent"][w] = []
        runs["change"][w] = []
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                checkout = parent if side == "parent" else change
                r = run_once(checkout, w, FIRST_SEED + i)
                runs[side][w].append(r)
                print(f"{w} pair {i} {side}: exit {r['exit']}",
                      file=sys.stderr, flush=True)
    return runs


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(metric, pv, cv):
    direction, bound = metric["better"], metric["bound"]
    pmed, pq1, pq3 = spread(pv)
    cmed, cq1, cq3 = spread(cv)
    wins = sum(better(c, p, direction) for p, c in zip(pv, cv))
    worse_by = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    all_better = all(better(c, p, direction) for c in cv for p in pv)
    pspread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    cspread = (cq3 - cq1) / abs(cmed) if cmed else 0.0
    if (wins >= GAIN_WINS and better(cmed, pmed, direction)
            and abs(cmed - pmed) > (pq3 - pq1)):
        v = "gain"
    elif worse_by > bound * abs(pmed):
        v = "REGRESSION"
    elif max(pspread, cspread) > bound and not all_better:
        v = "unresolved"
    else:
        v = "same"
    return (pmed, pq1, pq3), (cmed, cq1, cq3), wins, v


def report(runs):
    problems = 0
    for w in runs["parent"]:
        print(f"\n== workload {w} ({len(runs['parent'][w])} pairs)")
        sides = {}
        for side in ("parent", "change"):
            good = [r for r in runs[side][w]
                    if r["exit"] == 0 and r["result"] is not None
                    and r["result"]["correct"]]
            bad = len(runs[side][w]) - len(good)
            if bad:
                print(f"  {side}: {bad} run(s) failed or were incorrect")
                problems += 1
            sides[side] = good
        if len(sides["parent"]) < 2 or len(sides["change"]) < 2:
            print("  not enough good runs to compare")
            problems += 1
            continue
        n = min(len(sides["parent"]), len(sides["change"]))
        pres = [r["result"] for r in sides["parent"][:n]]
        cres = [r["result"] for r in sides["change"][:n]]
        pfail = sum(r["failed"] for r in pres)
        cfail = sum(r["failed"] for r in cres)
        print(f"  {'metric':<20} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
        for m in SPEC["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in pres]
            cv = [r["metrics"][m["name"]]["value"] for r in cres]
            (pm, p1, p3), (cm, c1, c3), wins, v = verdict(m, pv, cv)
            if v == "gain" and cfail > pfail:
                v = "void gain (more failed ops)"
            if v == "REGRESSION":
                problems += 1
            print(f"  {m['name']:<20} {pm:>12.5g} [{p1:.5g}, {p3:.5g}]"
                  f"{'':>2} {cm:>12.5g} [{c1:.5g}, {c3:.5g}]"
                  f" {wins:>3}/{n}  {v}")
        if cfail > pfail:
            print(f"  FLAG: the change failed {cfail} ops, the parent {pfail}")
            problems += 1
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path, help="save the raw runs as JSON")
    ap.add_argument("--load", type=Path, help="re-analyse saved runs")
    args = ap.parse_args()
    if args.load:
        runs = json.loads(args.load.read_text())
    else:
        if not (args.parent and args.change):
            ap.error("--parent and --change are required without --load")
        runs = collect(args.parent, args.change)
        if args.out:
            args.out.write_text(json.dumps(runs, indent=1))
    sys.exit(1 if report(runs) else 0)

if __name__ == "__main__":
    main()
