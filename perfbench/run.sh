#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-adj --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
commit=unknown
if [ -e "$root/.git" ] && c="$(git -C "$root" rev-parse HEAD 2>/dev/null)"; then
	commit="$c"
fi
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
