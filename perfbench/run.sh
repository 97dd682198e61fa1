#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-batch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache and temporary files, the binary, WAL
# directories and span dumps.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" --spec "$root/BENCHMARK.json" "$@"
