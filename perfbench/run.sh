#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload kv-e1 --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, and the benchmark's working files
# (data dirs, traces, CPU profiles) stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
bin="$build/perfbench"
go -C "$root/perfbench" build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
