#!/usr/bin/env bash
# Appends one record to perf-trajectory.jsonl, the committed history of
# the benchmark: for one change and one workload, the median of every
# end-to-end metric BENCHMARK.json declares, over perfbench runs of the
# parent commit and over runs of the change. Run from anywhere in the
# repository; needs jq.
#
#   scripts/trajectory.sh TITLE PARENT WORKLOAD PARENT_RUN... -- CHANGE_RUN...
#
# TITLE names the change, PARENT is its parent commit, and each run file
# holds the standard output of one perfbench run, whose last line is
# the JSON result:
#
#   bash perfbench/run.sh --workload pubsub-fanout --seed 21 --seconds 50 --trace 0 > p21.txt
set -euo pipefail
[ $# -ge 6 ] || { sed -n '8p' "$0" >&2; exit 2; }
title=$1 parent=$2 workload=$3
shift 3
before=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do before+=("$1"); shift; done
[ $# -gt 1 ] || { echo "trajectory: no change runs after --" >&2; exit 2; }
shift
results() { for f in "$@"; do tail -n 1 "$f"; done; }
root=$(git rev-parse --show-toplevel)
jq -cn --arg change "$title" --arg parent "$parent" --arg workload "$workload" \
	--slurpfile bench "$root/BENCHMARK.json" \
	--slurpfile p <(results "${before[@]}") --slurpfile c <(results "$@") '
	def median: sort | if length % 2 == 1 then .[length / 2 | floor]
		else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def medians($runs): [$bench[0].end_to_end[].name]
		| map({key: ., value: ([$runs[].metrics[.].value] | median * 1000 | round / 1000)})
		| from_entries;
	{change: $change, parent: $parent, workload: $workload,
	 runs: {parent: ($p | length), change: ($c | length)},
	 parent_median: medians($p), change_median: medians($c)}' >> "$root/perf-trajectory.jsonl"
