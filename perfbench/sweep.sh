#!/usr/bin/env bash
# Runs the benchmark on every workload for each seed given and saves each
# run's standard output as <out-dir>/<workload>-seed<seed>.out, the layout
# `perfbench compare` reads:
#
#   bash perfbench/sweep.sh runs/a 1 2 3 4 5 6 7 8 9 10
#   bash perfbench/sweep.sh runs/b 11 12 13 14 15 16 17 18 19 20
#   bash perfbench/run.sh compare runs/a runs/b
#
# WORKLOADS (space-separated, e.g. "warm-serve") and SECONDS_PER_RUN
# override the workloads and the run length; TRACE=1 makes traced runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$1"
shift
mkdir -p "$out"
for w in ${WORKLOADS:-cold-adj cold-hashjoin refresh}; do
	for seed in "$@"; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "${SECONDS_PER_RUN:-15}" \
			--trace "${TRACE:-0}" >"$out/$w-seed$seed.out" 2>"$out/$w-seed$seed.err" ||
			echo "sweep: $w seed $seed exited $?" >&2
	done
done
