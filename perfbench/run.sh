#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload route-cold --seed 1 --seconds 10 --trace 0
#
# Builds cmd/ttserve and the benchmark driver from source into .bench_build
# (with the Go build cache kept there too, so nothing is written outside the
# checkout), then runs the driver with the given arguments. The last line of
# standard output is the JSON result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ttserve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/ttserve and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0

go build -o "$out/bin/ttserve" ./cmd/ttserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -ttserve "$out/bin/ttserve" -work "$out" "$@"
