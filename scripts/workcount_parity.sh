#!/usr/bin/env bash
# workcount_parity.sh — exact work and stream parity of the working tree
# against a base revision:
#
#   bash scripts/workcount_parity.sh BASE
#   make workcount-parity BASE=origin/main
#
# BASE (any git revision) is extracted into a temporary directory with
# `git archive`, and the working tree's cmd/qpworkcount is copied into
# it, so both sides replay the same sessions with the same counter. Each
# side then runs qpworkcount on perfbench's order and mediate sessions
# (-seeds 1,7 -sessions 1024). The script fails on any difference: a
# change must do the same work (evaluations, dominance tests and
# refinements; accesses, cache hits, failed attempts and cost) and emit
# byte-identical plan and answer streams. Unlike perfbench's timed runs,
# the counts do not depend on the machine's speed. The temporary
# directory is removed on every exit path.
set -euo pipefail

base=${1:?usage: $0 BASE}
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
work=$(mktemp -d "${TMPDIR:-/tmp}/workcount_parity.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$rev" | tar -x -C "$work/base"
rm -rf "$work/base/cmd/qpworkcount"
cp -R "$root/cmd/qpworkcount" "$work/base/cmd/qpworkcount"

(cd "$work/base" && go build -o "$work/qpworkcount.base" ./cmd/qpworkcount)
(cd "$root" && go build -o "$work/qpworkcount.change" ./cmd/qpworkcount)

status=0
for w in order mediate; do
	for side in base change; do
		"$work/qpworkcount.$side" -workload "$w" -seeds 1,7 -sessions 1024 >"$work/$w.$side"
	done
	if diff -u "$work/$w.base" "$work/$w.change"; then
		echo "workcount parity: $w identical to $(git -C "$root" rev-parse --short "$rev")"
		cat "$work/$w.change"
	else
		echo "workcount parity: $w differs from $(git -C "$root" rev-parse --short "$rev")" >&2
		status=1
	fi
done
exit $status
