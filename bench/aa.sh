#!/usr/bin/env bash
# A/A tool: run a workload several times on this checkout and print, per
# end-to-end metric, the median, the quartiles, and whether the spread
# between the quartiles stays inside the metric's bound in BENCHMARK.json.
#
#   bash bench/aa.sh <workload|all> [runs=10] [first-seed=1] [seed-step=1]
#
# With seed-step 1 every run gets another seed, which is how the benchmark
# is accepted; with 0 all runs share first-seed. Set PARENT to a second
# checkout to run parent-vs-change pairs: each run is then made on both,
# the side that goes first alternating, and both summaries are printed.
# Result lines are kept in bench/out/aa-<workload>[-parent].jsonl.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="${1:?usage: aa.sh <workload|all> [runs] [first-seed] [seed-step]}"
runs="${2:-10}" seed="${3:-1}" step="${4:-1}"
names=("$workload")
if [ "$workload" = all ]; then
	# the gated workloads, as BENCHMARK.json lists them; learn-drift by name
	names=(record-mix predict-mix serve-unix-sat serve-tcp-paced serve-shm-stream)
fi
mkdir -p "$root/bench/out"

# one <checkout> <workload> <seed> <result file>: a run's last line is its result
one() { (cd "$1" && bash bench/run.sh --workload "$2" --seed "$3" --trace 0 | tail -n 1) >>"$4"; }

for w in "${names[@]}"; do
	here="$root/bench/out/aa-$w.jsonl" there="$root/bench/out/aa-$w-parent.jsonl"
	: >"$here"
	[ -z "${PARENT:-}" ] || : >"$there"
	for ((i = 0; i < runs; i++)); do
		s=$((seed + i * step))
		if [ -z "${PARENT:-}" ]; then
			one "$root" "$w" "$s" "$here"
		elif ((i % 2 == 0)); then
			one "$PARENT" "$w" "$s" "$there"
			one "$root" "$w" "$s" "$here"
		else
			one "$root" "$w" "$s" "$here"
			one "$PARENT" "$w" "$s" "$there"
		fi
	done
	echo "== $w, this checkout"
	"$root/.bench_build/pythia-bench" --summarize "$root/BENCHMARK.json" <"$here"
	if [ -n "${PARENT:-}" ]; then
		echo "== $w, parent ($PARENT)"
		"$root/.bench_build/pythia-bench" --summarize "$root/BENCHMARK.json" <"$there"
	fi
done
