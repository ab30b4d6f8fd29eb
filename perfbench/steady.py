#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs every workload of BENCHMARK.json in two sets of runs, alternating
which set runs first; set A uses seeds base .. base+runs-1 and set B the
next runs seeds, so every run has its own seed. For each workload and
end-to-end metric it prints each set's median, quartiles (statistics.quantiles, n=4), quartile spread and
max/min spread as shares of the median, the distance between the two
medians, and whether the two sets agree within the metric's bound:

  - the quartile spread of each set is within the bound (setup_s exempt),
  - the second median is not worse than the first by more than the bound,
  - the share of failed sessions is the same in both sets.

A spread above a third of the bound is flagged as "wide". Exits non-zero
when a set disagrees or a run fails.

Usage, from the root of the repository:

  python3 perfbench/steady.py [--runs 10] [--seed 1] [--workloads order,mediate]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2, max(values) / min(values) - 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    ok = True
    for workload in names:
        sets = ([], [])
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                sets[s].append(run_once(bench, workload, args.seed + s * args.runs + i))
        print(f"== {workload}: {args.runs} runs per set")
        print(f"{'metric':22} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'max/min-1':>9} {'bound':>6} verdict")
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3, iqr, mm = summary(vals)
                meds.append(med)
                verdict = "ok"
                if name != "setup_s" and iqr > bound:
                    verdict, ok = "SPREAD", False
                elif name != "setup_s" and iqr > bound / 3:
                    verdict = "wide"
                print(f"{name:22} {'AB'[s]:3} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{iqr:8.3f} {mm:9.3f} {bound:6.2f} {verdict}")
            pooled = [r["metrics"][name]["value"] for rs in sets for r in rs]
            q1, med, q3, iqr, mm = summary(pooled)
            print(f"{name:22} {'all':3} {med:12.5g} {q1:12.5g} {q3:12.5g} {iqr:8.3f} {mm:9.3f}")
            worse = (meds[1] - meds[0]) / meds[0]
            if better == "higher":
                worse = -worse
            agree = worse <= bound
            ok = ok and agree
            print(f"{'':22} B vs A median {worse:+.3f} (worse is +): {'agree' if agree else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        same = shares[0] == shares[1]
        ok = ok and same and all(r["correct"] for rs in sets for r in rs)
        print(f"failed share A {shares[0]:.6f} B {shares[1]:.6f}: {'same' if same else 'DIFFERENT'}")
    print("AGREE" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
