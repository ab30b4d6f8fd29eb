#!/usr/bin/env bash
# perfbench_pair.sh — same-machine paired perfbench runs of a base
# revision against the working tree:
#
#   bash scripts/perfbench_pair.sh BASE WORKLOAD PAIRS
#   make perfbench-pair BASE=HEAD~1 WORKLOAD=order PAIRS=3
#
# BASE (any git revision) is extracted into a temporary directory with
# `git archive`, so an interrupted run leaves no worktree registered in
# the repository; the directory is removed on every exit path. Each pair
# runs perfbench/run.sh once on the base and once on the working tree
# with the same seed (SEED0, SEED0+1, ... for successive pairs), and the
# pairs alternate which side runs first so slow drift of the machine
# cancels out. Every run lasts BENCHMARK.json's run_seconds, with the
# per-layer trace off, as the benchmark itself runs. run.sh compiles
# before the benchmark starts its clocks, so each side's build is not
# measured.
#
# Output: every run's JSON line on stderr as it finishes, then one row
# per metric, and per workload kind for its latency percentiles, with the
# base median and quartiles (the spread a change must beat), the change
# median, the ratio change/base, and how many pairs the change won, by
# the `better` direction BENCHMARK.json gives (lower for the per-kind
# latencies). Unlike the ns/plan gate of `make bench-check`, which
# compares against a report written on another machine, both sides here
# are measured on this machine in the same session.
#
# Environment: SEED0, the first pair's seed (default 101).
set -euo pipefail

usage="usage: $0 BASE WORKLOAD PAIRS"
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:?$usage}
seed0=${SEED0:-101}

root=$(git rev-parse --show-toplevel)
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_pair.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"

# run SIDE SEED keeps the run's stdout as $work/SIDE.SEED.out. A failed
# session or output check makes run.sh exit non-zero, which stops the
# comparison: a faster wrong answer is not a result.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$work/base
	bash "$dir/perfbench/run.sh" --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 >"$work/$1.$2.out"
	echo "$1 seed=$2 $(tail -n 1 "$work/$1.$2.out")" >&2
}

for i in $(seq 0 $((pairs - 1))); do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 0 ]; then
		run base "$seed"
		run change "$seed"
	else
		run change "$seed"
		run base "$seed"
	fi
done

python3 - "$work" "$seed0" "$pairs" "$root/BENCHMARK.json" <<'PY'
import json, os, re, statistics, sys

work, seed0, pairs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
# Per-kind lines precede the JSON: "  coverage/idrips  n=142  p50=1.2ms ..."
kind_line = re.compile(r"^\s+(\S+)\s+n=\d+\s+(.*)$")

def load(side):
    runs = []
    for seed in range(seed0, seed0 + pairs):
        lines = open(os.path.join(work, f"{side}.{seed}.out")).read().splitlines()
        row = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
        for line in lines[:-1]:
            m = kind_line.match(line)
            if not m:
                continue
            for field in m.group(2).split():
                name, _, val = field.partition("=")
                if val.endswith("ms"):
                    row[f"{m.group(1)}.{name}_ms"] = float(val[:-2])
        runs.append(row)
    return runs

base, change = load("base"), load("change")
spec = json.load(open(sys.argv[4]))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

print(f"{'metric':40} {'base':>11} {'base q1-q3':>23} {'change':>11} {'ratio':>7} {'won':>6}")
for name in base[0]:
    b = [r[name] for r in base if name in r]
    c = [r[name] for r in change if name in r]
    if not b or not c:
        continue
    mb, mc = statistics.median(b), statistics.median(c)
    spread = "-"
    if len(b) > 1:
        q = statistics.quantiles(b, n=4, method="inclusive")
        spread = f"{q[0]:.4g}-{q[2]:.4g}"
    ratio = f"{mc / mb:.3f}" if mb else "-"
    direction = better.get(name, "lower" if name.endswith("_ms") else None)
    won = "-"
    if direction:
        sign = 1 if direction == "higher" else -1
        won = f"{sum(1 for x, y in zip(b, c) if (y - x) * sign > 0)}/{len(b)}"
    print(f"{name:40} {mb:11.4g} {spread:>23} {mc:11.4g} {ratio:>7} {won:>6}")
PY
