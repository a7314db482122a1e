#!/usr/bin/env bash
# The benchmark gate: runs the benchmark (bench/) on a checkout of the base
# and on this checkout in alternating pairs, then compares the two sets of
# runs against the bounds in BENCHMARK.json. It exits with the status of
# `bench/run.sh -compare`, which is non-zero when a workload's end-to-end
# metric is worse than at the base by more than its bound.
#
#   bash scripts/benchgate.sh BASE_DIR
#
# BASE_DIR is a checkout of the base commit, for example a git worktree.
# Each side builds and runs its own bench/. The side that runs first
# alternates from pair to pair, so a drift in the machine's speed falls on
# both. The results are left in .bench_build/gate/{base,head}.json.
set -euo pipefail
pairs=5
seconds=5
if [ $# -ne 1 ]; then
	echo "usage: $0 BASE_DIR" >&2
	exit 2
fi
base="$(cd "$1" && pwd)"
head="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$head/.bench_build/gate"
rm -rf "$out"
mkdir -p "$out"

run() { # run SIDE DIR: one untraced pass of every workload, appended to SIDE.json
	echo "== pair $pair: $1 ($2)"
	(cd "$2" && bash bench/run.sh -trace 0 -seconds "$seconds" -out "$out/$1.json")
}

for pair in $(seq 1 "$pairs"); do
	if ((pair % 2)); then
		run base "$base"
		run head "$head"
	else
		run head "$head"
		run base "$base"
	fi
done
cd "$head"
exec bash bench/run.sh -compare "$out/base.json" "$out/head.json"
